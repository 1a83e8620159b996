//! Deterministic simulation testing: adversarial schedules, per-step
//! oracles, and shrinking replay tapes.
//!
//! The experiment [`runner`](crate::runner) explores exactly one FIFO
//! interleaving per seed, and the invariant tests only look at the final
//! state. This module closes both gaps, FoundationDB-style:
//!
//! 1. **Cases** — a [`DstCase`] (protocol, ring size, shard count,
//!    workload, faults, config knobs, and a [`StrategySpec`] adversary) is
//!    generated from an `atp_util::check::Gen` draw tape, so a case *is*
//!    its tape. A [`CaseSpace`] names the generator: [`gen_case`] draws
//!    single-token cases (one shard), and
//!    [`gen_shard_case`](crate::shard::gen_shard_case) draws key-addressed
//!    cases over K shards with a fault confined to one of them.
//! 2. **Schedules** — the case's strategy is installed as the
//!    [`DeliveryStrategy`](atp_net::DeliveryStrategy) of the
//!    [`World`](atp_net::World), permuting same-instant events: every
//!    explored schedule is one the real system could exhibit.
//! 3. **Oracles** — [`run_case`] steps one world per shard in lockstep and
//!    re-checks the paper's invariants after *every* dispatched event: the
//!    prefix property across live nodes (Definition 2 / Theorem 1),
//!    at-most-one token per regeneration generation, zero history gaps in
//!    crash-free runs, and — in every shard no fault reaches — bounded
//!    responsiveness (Theorem 2) plus full service. A fault in one shard
//!    therefore must never block or delay another (cross-shard isolation).
//! 4. **Shrinking** — on a violation, [`Explorer::explore`] minimizes the
//!    case through [`atp_util::check::shrink_tape`]; because the case is
//!    rebuilt from the edited tape by its own generator, every shrink
//!    candidate is a valid case. The result serializes to a `.tape` JSON
//!    document replayed first on every later run, like `.regression`
//!    seeds.
//!
//! The machinery is calibrated against a seeded fault: [`Mutation::BadPrefixSkip`]
//! plants an off-by-one duplicate-skip bound in the node's `OrderState`
//! (see `atp_core`), which silently corrupts history digests on window
//! redelivery. The explorer must find it and shrink it to a minimal tape
//! — `tests/dst.rs` asserts it does.

use std::collections::VecDeque;

use atp_core::{ProtocolConfig, ShardId, TokenEvent, TrapCleanup, Want};

use atp_net::{
    ClassStarve, Fifo, Latency, Lifo, LinkFaults, MsgClass, NodeId, RecordedChoices, SeededShuffle,
    SimTime, StepOutcome, World, WorldConfig,
};
use atp_util::check::{shrink_tape, Gen};
use atp_util::json::{self, JsonWriter};
use atp_util::rng::{Rng, RngCore, SplitMix64};

use crate::runner::{Protocol, ProtocolNode};
use crate::shard::{earliest_world, gen_shard_case, shard_world};

/// Which adversarial schedule a case runs under.
///
/// Serializable into the case tape (it is *drawn* like everything else),
/// and buildable into a boxed [`atp_net::DeliveryStrategy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategySpec {
    /// Engine default order.
    Fifo,
    /// Newest-first among ties.
    Lifo,
    /// Seeded random permutation of every tie group.
    Shuffle(u64),
    /// Defer cheap (control) traffic: searches and traps always lose ties.
    StarveControl,
    /// Defer the token behind simultaneous control traffic.
    DelayToken,
    /// Explicit choice words (`word % ready_len`), then FIFO.
    Choices(Vec<u64>),
}

impl StrategySpec {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            StrategySpec::Fifo => "fifo",
            StrategySpec::Lifo => "lifo",
            StrategySpec::Shuffle(_) => "shuffle",
            StrategySpec::StarveControl => "starve-control",
            StrategySpec::DelayToken => "delay-token",
            StrategySpec::Choices(_) => "choices",
        }
    }

    pub(crate) fn install(&self, cfg: WorldConfig) -> WorldConfig {
        match self {
            StrategySpec::Fifo => cfg.strategy(Fifo),
            StrategySpec::Lifo => cfg.strategy(Lifo),
            StrategySpec::Shuffle(seed) => cfg.strategy(SeededShuffle::new(*seed)),
            StrategySpec::StarveControl => cfg.strategy(ClassStarve::new(MsgClass::Control)),
            StrategySpec::DelayToken => cfg.strategy(ClassStarve::new(MsgClass::Token)),
            StrategySpec::Choices(words) => cfg.strategy(RecordedChoices::new(words.clone())),
        }
    }
}

/// An optional seeded fault planted into the protocol under test.
///
/// `BadPrefixSkip` is the calibration target the explorer must be able to
/// find: a deliberately wrong duplicate-skip comparison in the ordered log
/// (see `OrderState::enable_bad_prefix_skip` in `atp-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Unmodified protocol code.
    None,
    /// Off-by-one prefix-skip bound in `OrderState::apply` (BinaryNode).
    BadPrefixSkip,
}

impl Mutation {
    /// Stable serialization label (tape files).
    pub fn label(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::BadPrefixSkip => "bad_prefix_skip",
        }
    }

    /// Parses a [`Mutation::label`] back.
    pub fn from_label(s: &str) -> Option<Mutation> {
        match s {
            "none" => Some(Mutation::None),
            "bad_prefix_skip" => Some(Mutation::BadPrefixSkip),
            _ => None,
        }
    }
}

/// One fully specified simulation case: `shards` independent token
/// instances over the same `n` nodes, each in its own world. A
/// single-token case is the one-shard case.
#[derive(Debug, Clone)]
pub struct DstCase {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Ring size.
    pub n: usize,
    /// Independent token shards over the ring.
    pub shards: u16,
    /// Initial token holder of each shard (`shards` entries).
    pub holders: Vec<u32>,
    /// World seed (latency jitter, drop coin flips); shard `s` runs
    /// `world_seed ^ (s << 32)`.
    pub world_seed: u64,
    /// Message latency bounds `(lo, hi)`.
    pub latency: (u64, u64),
    /// Control-message drop probability.
    pub drop_p: f64,
    /// Requests as `(tick, shard, node, payload)`.
    pub requests: Vec<(u64, u16, u32, u64)>,
    /// Optional `(crash_tick, node, recover_tick)` fault in `fault_shard`.
    pub crash: Option<(u64, u32, u64)>,
    /// Protocol tunables (mutation flag already applied).
    pub cfg: ProtocolConfig,
    /// The schedule adversary.
    pub strategy: StrategySpec,
    /// Whole-link loss probability — token frames included (0 disables).
    pub link_loss_p: f64,
    /// Whole-link duplication probability (0 disables).
    pub link_dup_p: f64,
    /// Optional partition `(at, heal_at, split)`: the ring splits into
    /// groups `0..split` and `split..n` at `at` and heals at `heal_at`.
    /// Severed links deliver nothing, token frames included. Lands in
    /// `fault_shard`.
    pub partition: Option<(u64, u64, u32)>,
    /// The shard the crash and partition land in; link loss, duplication
    /// and control drops reach every shard.
    pub fault_shard: u16,
}

impl DstCase {
    /// Whether the liveness-flavoured oracles apply: no faults, no drops,
    /// no token loss, no partition. Duplication alone stays benign — a
    /// duplicated frame must never cost liveness.
    pub fn is_benign(&self) -> bool {
        self.crash.is_none()
            && self.drop_p == 0.0
            && self.link_loss_p == 0.0
            && self.partition.is_none()
    }

    /// Ticks after the last request within which every benign-case request
    /// must be granted (the liveness oracle's bound, deliberately loose —
    /// a violation means "stuck", not "slow").
    pub fn response_bound(&self) -> u64 {
        let n = self.n as u64;
        let r = self.requests.len() as u64 + 2;
        let idle = self.cfg.idle_pass_ticks
            + if self.cfg.adaptive_speed {
                self.cfg.max_idle_pass_ticks
            } else {
                0
            };
        let per_hop = self.latency.1 + self.cfg.service_ticks + idle + 2;
        4 * r * n * per_hop + 256
    }

    /// Fencing window after a partition heals: this many ticks past
    /// `heal_at`, generation announcements must have superseded any stale
    /// token, leaving at most one live holder. Deliberately loose — a
    /// violation means fencing never converged, not that it was slow.
    pub fn settle_ticks(&self) -> u64 {
        256 + 32 * (self.latency.1 + 2) * self.n as u64
    }

    /// Absolute tick at which the run stops.
    pub fn horizon(&self) -> u64 {
        let last_stimulus = self
            .requests
            .iter()
            .map(|&(t, ..)| t)
            .chain(self.crash.iter().map(|&(_, _, rec)| rec))
            .chain(
                self.partition
                    .iter()
                    .map(|&(_, heal, _)| heal + self.settle_ticks()),
            )
            .max()
            .unwrap_or(0);
        last_stimulus + self.response_bound() + 64
    }

    /// Shard `s`'s protocol tunables: its initial holder, plus the recovery
    /// its faults need — regeneration for a crash, acks and regeneration
    /// for a partition. [`gen_case`] arms these already, so for its cases
    /// this changes nothing.
    fn shard_cfg(&self, s: u16) -> ProtocolConfig {
        let mut cfg = self.cfg.with_initial_holder(self.holders[s as usize]);
        if s == self.fault_shard && self.crash.is_some() {
            cfg = cfg.with_regeneration(cfg.effective_regen_timeout(self.n));
        }
        if s == self.fault_shard && self.partition.is_some() {
            cfg = cfg
                .with_token_acks(true)
                .with_regeneration(cfg.effective_regen_timeout(self.n));
        }
        cfg
    }
}

/// Draws a single-token [`DstCase`] (one shard, holder 0) for `protocol`
/// from `g`'s tape. The draw order is frozen by the checked-in tapes.
///
/// Total: every draw tolerates the all-zero tape (shrinking replays edited
/// tapes whose exhausted reads return 0), where it degenerates to the
/// smallest case: 2 nodes, one request at t=0, unit latency, FIFO.
pub fn gen_case(g: &mut Gen, protocol: Protocol, mutation: Mutation) -> DstCase {
    let n = g.gen_range(2..=10usize);
    let world_seed = g.next_u64();
    let latency = if g.gen_range(0..3u32) == 0 {
        (1, 3)
    } else {
        (1, 1)
    };
    let drop_p = match g.gen_range(0..4u32) {
        0 => 0.3,
        1 => 1.0,
        _ => 0.0,
    };
    let requests = g.vec(1..13, |g| {
        (
            g.gen_range(0..=200u64),
            0,
            g.gen_range(0..n as u32),
            g.gen_range(0..1000u64),
        )
    });

    let cfg = ProtocolConfig::default()
        .with_service_ticks(g.gen_range(0..=3u64))
        .with_single_outstanding(g.gen_bool(0.5))
        .with_serve_all_on_grant(g.gen_bool(0.5));
    // This word chose between delegated and directed search until directed
    // search was deleted. It is still drawn, exactly as the pick between two
    // modes drew it, so every recorded tape decodes to the case it recorded.
    let _ = g.gen_range(0..2usize);
    let mut cfg = cfg.with_trap_cleanup(*g.pick(&[TrapCleanup::Rotation, TrapCleanup::Inverse]));
    if g.gen_bool(0.25) {
        cfg = cfg
            .with_adaptive_speed(true)
            .with_idle_pass_ticks(g.gen_range(0..=2u64));
    }

    // Crashes only together with regeneration, so the protocol is actually
    // allowed to recover; a quarter of cases exercise the failure path.
    let crash = if g.gen_bool(0.25) {
        cfg = cfg.with_regeneration(cfg.effective_regen_timeout(n));
        let at = g.gen_range(0..150u64);
        let node = g.gen_range(0..n as u32);
        let down_for = g.gen_range(1..120u64);
        Some((at, node, at + down_for))
    } else {
        None
    };

    if mutation == Mutation::BadPrefixSkip {
        cfg = cfg.with_bad_prefix_skip(true);
    }

    let strategy = match g.gen_range(0..6u32) {
        0 => StrategySpec::Fifo,
        1 => StrategySpec::Lifo,
        2 => StrategySpec::Shuffle(g.next_u64()),
        3 => StrategySpec::StarveControl,
        4 => StrategySpec::DelayToken,
        _ => StrategySpec::Choices(g.vec(1..33, |g| g.next_u64())),
    };

    // Hostile-link extension. These draws come after everything else so
    // that tapes recorded before the extension existed — which exhaust
    // here and read 0 — decode to "all link faults off" and replay
    // byte-identically.
    let mut link_loss_p = 0.0;
    let mut link_dup_p = 0.0;
    match g.gen_range(0..5u32) {
        1 => link_dup_p = 0.2,
        2 => link_dup_p = 1.0,
        3 => link_loss_p = 0.05,
        4 => link_loss_p = 0.15,
        _ => {}
    }
    let partition = if g.gen_range(0..3u32) > 0 {
        let at = g.gen_range(0..120u64);
        let hold = g.gen_range(8..=96u64);
        let split = g.gen_range(1..n as u32);
        Some((at, at + hold, split))
    } else {
        None
    };
    if link_loss_p > 0.0 || partition.is_some() {
        // A lost or severed token frame needs both recovery paths armed:
        // ack/retransmit first, regeneration as the last resort.
        cfg = cfg
            .with_token_acks(true)
            .with_regeneration(cfg.effective_regen_timeout(n));
    }

    DstCase {
        protocol,
        n,
        shards: 1,
        holders: vec![0],
        world_seed,
        latency,
        drop_p,
        requests,
        crash,
        cfg,
        strategy,
        link_loss_p,
        link_dup_p,
        partition,
        fault_shard: 0,
    }
}

/// An oracle violation: which invariant broke, where, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two live nodes' applied histories are not prefix-ordered
    /// (Definition 2 broken — the safety property).
    PrefixDiverged {
        /// First node.
        a: NodeId,
        /// Second node.
        b: NodeId,
        /// When the divergence was first observed.
        at: SimTime,
    },
    /// A node skipped history entries although nothing ever crashed.
    UnexpectedGap {
        /// The gapped node.
        node: NodeId,
        /// Observation time.
        at: SimTime,
    },
    /// Two live nodes hold tokens of the same generation.
    DuplicateToken {
        /// First holder.
        a: NodeId,
        /// Second holder.
        b: NodeId,
        /// The shared generation.
        generation: u32,
        /// Observation time.
        at: SimTime,
    },
    /// A benign-case request was not granted within the response bound.
    Unresponsive {
        /// The starved node.
        node: NodeId,
        /// When the request was issued.
        requested_at: SimTime,
        /// The missed deadline.
        deadline: SimTime,
    },
    /// Requests left unserved at the end of a benign run.
    Unserved {
        /// How many requests never got the token.
        remaining: u64,
    },
    /// After a partition healed and the fencing window elapsed, two live
    /// nodes still hold tokens — the stale generation was never fenced.
    DualTokenAfterHeal {
        /// First holder.
        a: NodeId,
        /// First holder's token generation.
        gen_a: u32,
        /// Second holder.
        b: NodeId,
        /// Second holder's token generation.
        gen_b: u32,
        /// Observation time.
        at: SimTime,
    },
    /// A violation inside one shard of a multi-shard case (a one-shard
    /// case reports its violations bare).
    InShard {
        /// The shard whose world violated.
        shard: ShardId,
        /// What broke there.
        violation: Box<Violation>,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Violation::PrefixDiverged { a, b, at } => write!(
                f,
                "prefix property violated between node {a} and node {b} at t={}",
                at.ticks()
            ),
            Violation::UnexpectedGap { node, at } => write!(
                f,
                "node {node} skipped history entries (gap) without any crash at t={}",
                at.ticks()
            ),
            Violation::DuplicateToken {
                a,
                b,
                generation,
                at,
            } => write!(
                f,
                "nodes {a} and {b} both hold a generation-{generation} token at t={}",
                at.ticks()
            ),
            Violation::Unresponsive {
                node,
                requested_at,
                deadline,
            } => write!(
                f,
                "request at node {node} (t={}) not granted by deadline t={}",
                requested_at.ticks(),
                deadline.ticks()
            ),
            Violation::Unserved { remaining } => {
                write!(f, "{remaining} request(s) unserved at end of benign run")
            }
            Violation::DualTokenAfterHeal {
                a,
                gen_a,
                b,
                gen_b,
                at,
            } => write!(
                f,
                "dual token survived partition heal: node {a} (gen {gen_a}) and node {b} \
                 (gen {gen_b}) both hold at t={}",
                at.ticks()
            ),
            Violation::InShard {
                shard,
                ref violation,
            } => write!(f, "[{shard}] {violation}"),
        }
    }
}

/// Counters from a completed (violation-free) case.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseStats {
    /// Events the world dispatched or consumed.
    pub events: u64,
    /// Total grants across all nodes.
    pub grants: u64,
    /// Oracle evaluations performed (one per dispatched event).
    pub oracle_checks: u64,
}

/// Runs one case under its adversary, checking every oracle after every
/// dispatched event. `Ok` carries run counters; `Err` the first violation.
pub fn run_case(case: &DstCase) -> Result<CaseStats, Violation> {
    run_case_traced(case, 0).0
}

/// Like [`run_case`], but the world additionally retains its last
/// `trace_capacity` network trace events, returned as JSON lines (see
/// [`atp_net::trace::TraceLog::to_json_lines`]) alongside the verdict —
/// also (and especially) when the case fails an oracle.
pub fn run_case_traced(
    case: &DstCase,
    trace_capacity: usize,
) -> (Result<CaseStats, Violation>, String) {
    struct RunCase<'a> {
        case: &'a DstCase,
        trace_capacity: usize,
    }
    impl crate::runner::ProtocolVisitor for RunCase<'_> {
        type Out = (Result<CaseStats, Violation>, String);
        fn run<N: ProtocolNode>(self) -> Self::Out {
            run_case_on::<N>(self.case, self.trace_capacity)
        }
    }
    case.protocol.dispatch(RunCase {
        case,
        trace_capacity,
    })
}

/// Which oracles apply to one shard of a case, precomputed once per run.
#[derive(Debug, Clone, Copy)]
struct OracleScope {
    /// Pairwise prefix check applies. Off during/after a partition (both
    /// sides legitimately append while split) and under probabilistic
    /// token loss (a live node whose inquiry reply is lost is presumed
    /// dead, so regeneration can restart the line without its entries —
    /// the same artifact the crash exemption covers, at any node).
    prefix: bool,
    /// Zero-gap check applies (off whenever regeneration can restart the
    /// history line: crashes, token loss, partitions).
    gaps: bool,
    /// Node excluded from the prefix check (the scheduled crash victim).
    crashed: Option<NodeId>,
    /// First tick at which the dual-token-after-heal oracle is armed
    /// (`u64::MAX` when the case has no partition, or when probabilistic
    /// token loss could legitimately delay fencing forever).
    dual_token_from: u64,
    /// Liveness oracles apply: bounded responsiveness after every event
    /// and full service at the end. Only in a shard no fault reaches — so
    /// in a multi-shard case they are the cross-shard isolation oracle.
    live: bool,
}

impl OracleScope {
    /// The scope of shard `s`: the case's crash and partition count only
    /// in `fault_shard`, its link faults in every shard.
    fn of(case: &DstCase, s: u16) -> OracleScope {
        let here = s == case.fault_shard;
        let crash = case.crash.filter(|_| here);
        let partition = case.partition.filter(|_| here);
        let regen_possible = crash.is_some() || case.link_loss_p > 0.0 || partition.is_some();
        OracleScope {
            prefix: partition.is_none() && case.link_loss_p == 0.0,
            gaps: !regen_possible,
            crashed: crash.map(|(_, node, _)| NodeId::new(node)),
            dual_token_from: match partition {
                // Announcements travel lossless links here (control drops
                // never touch token-class frames), so fencing must land
                // within the settle window.
                Some((_, heal, _)) if case.link_loss_p == 0.0 => heal + case.settle_ticks(),
                _ => u64::MAX,
            },
            live: !regen_possible && case.drop_p == 0.0,
        }
    }
}

/// Evaluates the state oracles over all live nodes. Called after every
/// dispatched event — `O(n²)` digest compares, fine at DST ring sizes.
///
/// `scope.crashed` is the node a crash was scheduled for, if any. That node
/// is excluded from the pairwise prefix check: when a holder dies with
/// entries only it applied, regeneration restarts the history line from the
/// survivors' frontier, so the recovered node legitimately keeps a forked
/// suffix (Definition 2 is "modulo regeneration epochs"). Never-crashed
/// nodes must stay prefix-ordered unconditionally — stale-generation frames
/// are discarded, so only one token lineage ever reaches them.
fn check_state_oracles<N: ProtocolNode>(
    world: &World<N>,
    scope: OracleScope,
    at: SimTime,
) -> Result<(), Violation> {
    let crash_free = scope.gaps;
    let crashed = scope.crashed;
    let live: Vec<(NodeId, &N)> = world
        .nodes()
        .filter(|&(id, _)| world.is_alive(id))
        .collect();

    // Prefix property (Definition 2): any two live histories must be
    // prefix-ordered. Digest comparison makes each pair O(1).
    if scope.prefix {
        for (i, &(ia, a)) in live.iter().enumerate() {
            if Some(ia) == crashed {
                continue;
            }
            for &(ib, b) in &live[i + 1..] {
                if Some(ib) == crashed {
                    continue;
                }
                let sa = a.order_state();
                let sb = b.order_state();
                if !sa.is_prefix_of(sb) && !sb.is_prefix_of(sa) {
                    return Err(Violation::PrefixDiverged { a: ia, b: ib, at });
                }
            }
        }
    }

    // Without crashes the carried window can never be outrun: any gap is
    // a protocol bug, not a recovery artifact.
    if crash_free {
        for &(id, node) in &live {
            if node.order_state().gap_events() > 0 {
                return Err(Violation::UnexpectedGap { node: id, at });
            }
        }
    }

    // At most one live holder per token generation (Section 5: stale
    // generations are superseded, but a *shared* generation means the
    // mutual-exclusion core is broken).
    let holders: Vec<(NodeId, u32)> = live
        .iter()
        .filter(|(_, n)| n.holds_token_now())
        .map(|&(id, n)| (id, n.token_generation()))
        .collect();
    for (i, &(ia, ga)) in holders.iter().enumerate() {
        for &(ib, gb) in &holders[i + 1..] {
            if ga == gb {
                return Err(Violation::DuplicateToken {
                    a: ia,
                    b: ib,
                    generation: ga,
                    at,
                });
            }
        }
    }

    // Partition-heal fencing: once the fencing window has elapsed, at most
    // one live node may hold *any* token — a second holder means a stale
    // generation survived the heal instead of being superseded.
    if at.ticks() >= scope.dual_token_from && holders.len() >= 2 {
        let (a, gen_a) = holders[0];
        let (b, gen_b) = holders[1];
        return Err(Violation::DualTokenAfterHeal {
            a,
            gen_a,
            b,
            gen_b,
            at,
        });
    }
    Ok(())
}

fn run_case_on<N: ProtocolNode>(
    case: &DstCase,
    trace_capacity: usize,
) -> (Result<CaseStats, Violation>, String) {
    let mut worlds: Vec<World<N>> = (0..case.shards)
        .map(|s| {
            let mut world_cfg = WorldConfig::default().trace_capacity(trace_capacity);
            if case.latency != (1, 1) {
                let (lo, hi) = case.latency;
                world_cfg = world_cfg.latency(Latency::Uniform { lo, hi });
            }
            // One unified fault model. Draws at p = 0 are skipped and the
            // control draw comes first, so the RNG stream matches the former
            // two-model pipeline (drop model, then fault model) and
            // checked-in replay tapes keep replaying unchanged.
            world_cfg = world_cfg.link_faults(
                LinkFaults::new()
                    .control_loss(case.drop_p)
                    .loss(case.link_loss_p)
                    .duplication(case.link_dup_p),
            );
            let world_cfg = case.strategy.install(world_cfg);
            shard_world(case.n, case.shard_cfg(s), world_cfg, case.world_seed, s)
        })
        .collect();
    for &(t, s, node, payload) in &case.requests {
        worlds[s as usize].schedule_external(
            SimTime::from_ticks(t),
            NodeId::new(node),
            Want::new(payload),
        );
    }
    let faulted = &mut worlds[case.fault_shard as usize];
    if let Some((at, node, recover_at)) = case.crash {
        faulted.schedule_crash(SimTime::from_ticks(at), NodeId::new(node));
        faulted.schedule_recover(SimTime::from_ticks(recover_at), NodeId::new(node));
    }
    if let Some((at, heal_at, split)) = case.partition {
        let left: Vec<NodeId> = (0..split).map(NodeId::new).collect();
        let right: Vec<NodeId> = (split..case.n as u32).map(NodeId::new).collect();
        faulted.schedule_partition(
            SimTime::from_ticks(at),
            SimTime::from_ticks(heal_at),
            &[left, right],
        );
    }
    // Initialise only now, so each world's own start-up events queue behind
    // the stimuli above — the order a lazily initialised world runs them in.
    for world in &mut worlds {
        world.init();
    }

    let result = drive_case(case, &mut worlds);
    let trace = if trace_capacity > 0 {
        worlds.iter().map(|w| w.trace().to_json_lines()).collect()
    } else {
        String::new()
    };
    (result, trace)
}

/// Drives the fully scheduled shard worlds in lockstep — always the world
/// with the earliest pending event, lowest shard on ties — checking every
/// oracle after every dispatched event. The step that first passes the
/// horizon is still taken and checked; then the run stops.
fn drive_case<N: ProtocolNode>(
    case: &DstCase,
    worlds: &mut [World<N>],
) -> Result<CaseStats, Violation> {
    let scopes: Vec<OracleScope> = (0..case.shards).map(|s| OracleScope::of(case, s)).collect();
    let bound = case.response_bound();
    let deadline = SimTime::from_ticks(case.horizon());
    let k = worlds.len();
    let in_shard = |s: usize, violation: Violation| {
        if k == 1 {
            violation
        } else {
            Violation::InShard {
                shard: ShardId(s as u16),
                violation: Box::new(violation),
            }
        }
    };

    // Liveness bookkeeping: per-shard, per-node queue of outstanding
    // request times. `Requested` pushes, `Granted` pops the oldest; the
    // grant deadline of the *front* request is the earliest unmet
    // obligation.
    let mut pending: Vec<Vec<VecDeque<SimTime>>> = vec![vec![VecDeque::new(); case.n]; k];
    let mut stats = CaseStats::default();
    let mut drained: Vec<TokenEvent> = Vec::new();

    while let Some((_, s)) = earliest_world(worlds) {
        let world = &mut worlds[s];
        stats.events += 1;
        match world.step() {
            StepOutcome::Quiescent => break,
            StepOutcome::Consumed { at } => {
                if at > deadline {
                    break;
                }
            }
            StepOutcome::Dispatched { node, at } => {
                let queue = &mut pending[s][node.index()];
                drain_events(world, node, queue, &mut drained, &mut stats.grants);
                check_state_oracles(world, scopes[s], at).map_err(|v| in_shard(s, v))?;
                if scopes[s].live {
                    // The oldest outstanding request anywhere in the shard
                    // must have been granted before its deadline passed.
                    for (i, q) in pending[s].iter().enumerate() {
                        if let Some(&req_at) = q.front() {
                            let req_deadline = req_at.saturating_add(bound);
                            if at > req_deadline {
                                return Err(in_shard(
                                    s,
                                    Violation::Unresponsive {
                                        node: NodeId::new(i as u32),
                                        requested_at: req_at,
                                        deadline: req_deadline,
                                    },
                                ));
                            }
                        }
                    }
                }
                stats.oracle_checks += 1;
                if at > deadline {
                    break;
                }
            }
        }
    }

    // Drain events buffered at nodes that never dispatched again, then run
    // the end-of-run obligations, shard by shard.
    for (s, world) in worlds.iter_mut().enumerate() {
        for (i, queue) in pending[s].iter_mut().enumerate() {
            let id = NodeId::new(i as u32);
            if world.node(id).has_events() {
                drain_events(world, id, queue, &mut drained, &mut stats.grants);
            }
        }
        check_state_oracles(world, scopes[s], world.now()).map_err(|v| in_shard(s, v))?;
        if scopes[s].live {
            let remaining: u64 = pending[s].iter().map(|q| q.len() as u64).sum();
            if remaining > 0 {
                return Err(in_shard(s, Violation::Unserved { remaining }));
            }
        }
    }
    Ok(stats)
}

/// Moves `node`'s buffered events into its liveness `queue`.
fn drain_events<N: ProtocolNode>(
    world: &mut World<N>,
    node: NodeId,
    queue: &mut VecDeque<SimTime>,
    drained: &mut Vec<TokenEvent>,
    grants: &mut u64,
) {
    drained.clear();
    world.node_mut(node).take_events_into(drained);
    for ev in drained.iter() {
        match *ev {
            TokenEvent::Requested { at, .. } => queue.push_back(at),
            TokenEvent::Granted { .. } => {
                *grants += 1;
                queue.pop_front();
            }
            _ => {}
        }
    }
}

/// A minimized failing schedule, ready to serialize as a `.tape` file.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Protocol the violation occurred under.
    pub protocol: Protocol,
    /// The generator the tape decodes through.
    pub space: CaseSpace,
    /// The mutation active during exploration.
    pub mutation: Mutation,
    /// Seed of the originally failing case.
    pub case_seed: u64,
    /// Minimized draw tape; [`replay_tape`] rebuilds the exact case.
    pub tape: Vec<u64>,
    /// Shrink candidates evaluated.
    pub shrink_iters: u32,
    /// The violation the minimized tape reproduces.
    pub violation: Violation,
    /// Debug rendering of the minimized case.
    pub case_debug: String,
}

/// Result of an exploration campaign for one protocol.
#[derive(Debug, Clone)]
pub enum ExploreOutcome {
    /// Every case passed every oracle.
    Clean {
        /// Cases executed.
        cases: u32,
        /// Total oracle evaluations across all cases.
        oracle_checks: u64,
    },
    /// A violation was found and minimized.
    Found(Box<Counterexample>),
}

/// Which generator an [`Explorer`] draws cases from. A tape is only
/// meaningful through the generator that drew it, so tapes record it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseSpace {
    /// [`gen_case`]: one token, node-addressed requests, hostile links.
    Flat,
    /// [`gen_shard_case`]: K tokens, key-addressed requests, at most one
    /// crash or partition, confined to one shard.
    Sharded,
}

impl CaseSpace {
    /// Stable serialization label (tape files).
    pub fn label(self) -> &'static str {
        match self {
            CaseSpace::Flat => "flat",
            CaseSpace::Sharded => "shard",
        }
    }

    /// Parses a [`CaseSpace::label`] back.
    pub fn from_label(s: &str) -> Option<CaseSpace> {
        match s {
            "flat" => Some(CaseSpace::Flat),
            "shard" => Some(CaseSpace::Sharded),
            _ => None,
        }
    }

    /// Draws (or, from a recorded tape, rebuilds) a case of this space.
    pub fn gen(self, g: &mut Gen, protocol: Protocol, mutation: Mutation) -> DstCase {
        match self {
            CaseSpace::Flat => gen_case(g, protocol, mutation),
            CaseSpace::Sharded => gen_shard_case(g, protocol, mutation),
        }
    }
}

/// Which slice of the drawn fault space an [`Explorer`] runs.
///
/// Implemented as a filter over the space's generator, so a kept case's
/// tape still rebuilds it with the plain generator — tapes stay universal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Focus {
    /// The whole mixed case space, as drawn.
    All,
    /// Only cases with a partition window — the heal-fencing adversary
    /// behind the [`Violation::DualTokenAfterHeal`] oracle.
    Partition,
}

impl Focus {
    fn admits(self, case: &DstCase) -> bool {
        match self {
            Focus::All => true,
            Focus::Partition => case.partition.is_some(),
        }
    }
}

/// Fuzzes `(seed, strategy)` pairs for one protocol under a case budget.
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Base seed of the deterministic case-seed stream.
    pub base_seed: u64,
    /// Seeded fault to plant (or [`Mutation::None`]).
    pub mutation: Mutation,
    /// Cap on shrink candidate evaluations after a find.
    pub max_shrink_iters: u32,
    /// Case filter ([`Focus::All`] runs everything drawn).
    pub focus: Focus,
    /// The generator cases are drawn from.
    pub space: CaseSpace,
}

impl Explorer {
    /// An explorer with the default shrink budget over the full flat case
    /// space.
    pub fn new(protocol: Protocol, base_seed: u64, mutation: Mutation) -> Self {
        Explorer {
            protocol,
            base_seed,
            mutation,
            max_shrink_iters: 2_000,
            focus: Focus::All,
            space: CaseSpace::Flat,
        }
    }

    /// Restricts exploration to cases admitted by `focus`.
    pub fn with_focus(mut self, focus: Focus) -> Self {
        self.focus = focus;
        self
    }

    /// Draws cases from `space` instead.
    pub fn with_space(mut self, space: CaseSpace) -> Self {
        self.space = space;
        self
    }

    /// Runs up to `budget` admitted cases; on the first violation, shrinks
    /// it to a minimal tape and returns the counterexample.
    pub fn explore(&self, budget: u32) -> ExploreOutcome {
        // Stream the per-protocol case seeds from the base seed, exactly
        // like `Check` streams its case seeds. Cases the focus rejects are
        // skipped without running (and without counting against `budget`);
        // the attempt cap bounds the skip overhead.
        // Each space keeps its own stream per protocol.
        let space_salt = match self.space {
            CaseSpace::Flat => 0,
            CaseSpace::Sharded => fnv1a("shard"),
        };
        let mut sm = SplitMix64::new(self.base_seed ^ space_salt ^ fnv1a(self.protocol.label()));
        let mut oracle_checks = 0u64;
        let mut ran = 0u32;
        let mut attempts = 0u32;
        let max_attempts = budget.saturating_mul(8).max(budget);
        while ran < budget && attempts < max_attempts {
            attempts += 1;
            let case_seed = sm.next_u64();
            let mut g = Gen::from_seed(case_seed);
            let case = self.space.gen(&mut g, self.protocol, self.mutation);
            if !self.focus.admits(&case) {
                continue;
            }
            ran += 1;
            match run_case(&case) {
                Ok(stats) => oracle_checks += stats.oracle_checks,
                Err(first) => {
                    let tape = g.tape().to_vec();
                    return ExploreOutcome::Found(Box::new(self.minimize(case_seed, tape, first)));
                }
            }
        }
        ExploreOutcome::Clean {
            cases: ran,
            oracle_checks,
        }
    }

    fn minimize(&self, case_seed: u64, tape: Vec<u64>, first: Violation) -> Counterexample {
        let (protocol, space, mutation) = (self.protocol, self.space, self.mutation);
        let (min_tape, shrink_iters) = shrink_tape(tape, self.max_shrink_iters, |cand| {
            let mut g = Gen::from_tape(cand.to_vec());
            let case = space.gen(&mut g, protocol, mutation);
            run_case(&case).err().map(|_| g.tape().to_vec())
        });
        let mut g = Gen::from_tape(min_tape.clone());
        let min_case = space.gen(&mut g, protocol, mutation);
        let violation = run_case(&min_case).err().unwrap_or(first);
        Counterexample {
            protocol,
            space,
            mutation,
            case_seed,
            tape: min_tape,
            shrink_iters,
            violation,
            case_debug: format!("{min_case:#?}"),
        }
    }
}

/// FNV-1a over a label; namespaces the per-protocol seed streams.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deserialized `.tape` file: a named, replayable counterexample (or a
/// pinned benign schedule kept as a regression).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapeFile {
    /// Short identifier (conventionally the file stem).
    pub name: String,
    /// Protocol the tape drives.
    pub protocol: Protocol,
    /// The generator the tape decodes through (written only when not
    /// [`CaseSpace::Flat`], so flat tapes keep their original bytes).
    pub space: CaseSpace,
    /// Mutation that must be active for the tape to fail ([`Mutation::None`]
    /// for benign regression tapes, which must *pass*).
    pub mutation: Mutation,
    /// Human note: what this tape reproduces.
    pub note: String,
    /// The case draw tape.
    pub tape: Vec<u64>,
}

impl TapeFile {
    /// Serializes to the checked-in `.tape` JSON format.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("version");
        w.u64(1);
        w.key("name");
        w.str(&self.name);
        w.key("protocol");
        w.str(self.protocol.label());
        if self.space != CaseSpace::Flat {
            w.key("space");
            w.str(self.space.label());
        }
        w.key("mutation");
        w.str(self.mutation.label());
        w.key("note");
        w.str(&self.note);
        w.key("tape");
        w.begin_arr();
        for &word in &self.tape {
            w.u64(word);
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }

    /// Parses a `.tape` document written by [`TapeFile::to_json`].
    pub fn from_json(text: &str) -> Result<TapeFile, String> {
        let doc = json::parse(text)?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("missing field '{k}'"));
        let version = field("version")?
            .as_u64()
            .ok_or("'version' is not an integer")?;
        if version != 1 {
            return Err(format!("unsupported tape version {version}"));
        }
        let name = field("name")?.as_str().ok_or("'name' is not a string")?;
        let protocol_label = field("protocol")?
            .as_str()
            .ok_or("'protocol' is not a string")?;
        let protocol = Protocol::from_label(protocol_label)
            .ok_or_else(|| format!("unknown protocol '{protocol_label}'"))?;
        let space = match doc.get("space") {
            None => CaseSpace::Flat,
            Some(v) => {
                let label = v.as_str().ok_or("'space' is not a string")?;
                CaseSpace::from_label(label).ok_or_else(|| format!("unknown space '{label}'"))?
            }
        };
        let mutation_label = field("mutation")?
            .as_str()
            .ok_or("'mutation' is not a string")?;
        let mutation = Mutation::from_label(mutation_label)
            .ok_or_else(|| format!("unknown mutation '{mutation_label}'"))?;
        let note = field("note")?.as_str().ok_or("'note' is not a string")?;
        let tape = field("tape")?
            .as_arr()
            .ok_or("'tape' is not an array")?
            .iter()
            .map(|v| v.as_u64().ok_or("tape entry is not a u64".to_string()))
            .collect::<Result<Vec<u64>, String>>()?;
        Ok(TapeFile {
            name: name.to_string(),
            protocol,
            space,
            mutation,
            note: note.to_string(),
            tape,
        })
    }

    /// From a minimized counterexample.
    pub fn from_counterexample(name: &str, cx: &Counterexample) -> TapeFile {
        TapeFile {
            name: name.to_string(),
            protocol: cx.protocol,
            space: cx.space,
            mutation: cx.mutation,
            note: cx.violation.to_string(),
            tape: cx.tape.clone(),
        }
    }
}

/// Rebuilds the case a tape encodes in `space` and runs it under `mutation`.
pub fn replay_tape(
    space: CaseSpace,
    tape: &[u64],
    protocol: Protocol,
    mutation: Mutation,
) -> Result<CaseStats, Violation> {
    replay_tape_traced(space, tape, protocol, mutation, 0).0
}

/// Replays a tape with network tracing on; returns the verdict plus the
/// worlds' traces as JSON lines. Deterministic: same tape, same bytes.
pub fn replay_tape_traced(
    space: CaseSpace,
    tape: &[u64],
    protocol: Protocol,
    mutation: Mutation,
    trace_capacity: usize,
) -> (Result<CaseStats, Violation>, String) {
    let mut g = Gen::from_tape(tape.to_vec());
    let case = space.gen(&mut g, protocol, mutation);
    run_case_traced(&case, trace_capacity)
}

/// What replaying a checked-in [`TapeFile`] must establish.
///
/// * Mutation tapes must still **fail** under their mutation (the tape has
///   not rotted) and must **pass** on the unmodified protocol (the real
///   code does not share the planted bug).
/// * Benign tapes ([`Mutation::None`]) must simply pass.
///
/// Returns `Err` with a human-readable reason on any regression.
pub fn verify_tape(tf: &TapeFile) -> Result<(), String> {
    let replay = |mutation| replay_tape(tf.space, &tf.tape, tf.protocol, mutation);
    match tf.mutation {
        Mutation::None => replay(Mutation::None)
            .map(|_| ())
            .map_err(|v| format!("benign tape '{}' now fails: {v}", tf.name)),
        mutation => {
            if replay(mutation).is_ok() {
                return Err(format!(
                    "mutation tape '{}' no longer reproduces its violation \
                     (tape rot or oracle weakened)",
                    tf.name
                ));
            }
            replay(Mutation::None).map(|_| ()).map_err(|v| {
                format!(
                    "tape '{}' fails even WITHOUT its mutation — real bug?: {v}",
                    tf.name
                )
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_case_tolerates_all_zero_tape() {
        for protocol in Protocol::ALL {
            let mut g = Gen::from_tape(Vec::new());
            let case = gen_case(&mut g, protocol, Mutation::None);
            assert_eq!(case.n, 2);
            assert_eq!(case.requests.len(), 1);
            assert_eq!(case.strategy, StrategySpec::Fifo);
            // Draws past the tape end read 0 → every link fault off, so
            // pre-extension tapes keep decoding to the exact same case.
            assert_eq!(case.link_loss_p, 0.0);
            assert_eq!(case.link_dup_p, 0.0);
            assert!(case.partition.is_none());
            assert!(!case.cfg.token_acks);
            assert!(run_case(&case).is_ok(), "zero case must pass");
        }
    }

    #[test]
    fn case_generation_is_tape_deterministic() {
        let mut g1 = Gen::from_seed(99);
        let case1 = gen_case(&mut g1, Protocol::Binary, Mutation::None);
        let mut g2 = Gen::from_tape(g1.tape().to_vec());
        let case2 = gen_case(&mut g2, Protocol::Binary, Mutation::None);
        assert_eq!(format!("{case1:?}"), format!("{case2:?}"));
    }

    #[test]
    fn small_clean_exploration_passes() {
        for protocol in Protocol::ALL {
            match Explorer::new(protocol, 7, Mutation::None).explore(12) {
                ExploreOutcome::Clean {
                    cases,
                    oracle_checks,
                } => {
                    assert_eq!(cases, 12);
                    assert!(oracle_checks > 0, "{}: oracles never ran", protocol.label());
                }
                ExploreOutcome::Found(cx) => {
                    panic!(
                        "{}: unexpected violation: {}",
                        protocol.label(),
                        cx.violation
                    )
                }
            }
        }
    }

    #[test]
    fn partition_focus_admits_only_partition_cases() {
        let mut sm = SplitMix64::new(42);
        let mut with_partition = 0u32;
        for _ in 0..64 {
            let mut g = Gen::from_seed(sm.next_u64());
            let case = gen_case(&mut g, Protocol::Ring, Mutation::None);
            if Focus::Partition.admits(&case) {
                with_partition += 1;
                let (at, heal, split) = case.partition.unwrap();
                assert!(heal > at);
                assert!(split >= 1 && (split as usize) < case.n);
                assert!(case.cfg.token_acks, "partition cases must arm acks");
                assert!(case.cfg.regeneration, "partition cases must arm regen");
            }
            assert!(Focus::All.admits(&case));
        }
        assert!(
            with_partition > 10,
            "partition draws too rare: {with_partition}/64"
        );
    }

    #[test]
    fn partition_exploration_passes() {
        for protocol in Protocol::ALL {
            let explorer = Explorer::new(protocol, 11, Mutation::None).with_focus(Focus::Partition);
            match explorer.explore(6) {
                ExploreOutcome::Clean {
                    cases,
                    oracle_checks,
                } => {
                    assert!(
                        cases >= 4,
                        "{}: only {cases} partition cases ran",
                        protocol.label()
                    );
                    assert!(oracle_checks > 0);
                }
                ExploreOutcome::Found(cx) => {
                    panic!(
                        "{}: unexpected violation: {}\n{}",
                        protocol.label(),
                        cx.violation,
                        cx.case_debug
                    )
                }
            }
        }
    }

    /// The token's prefix-digest memo lets a logs-off node adopt the carried
    /// window's head without chaining it — but only after the node's own
    /// digest matched the chain. A node restored from a checkpoint with a
    /// flipped digest bit is refused at every later possession, so it ends
    /// the run at the common length with its own wrong digest and the
    /// pairwise prefix oracle names it. Node 2 runs with logs off (eligible
    /// for the shortcut); the others keep logs, which is what lets the
    /// oracle compare prefixes of different lengths.
    #[test]
    fn prefix_oracle_still_reports_a_digest_the_memo_refused() {
        use atp_core::{RingNode, WireProtocol};
        let victim = NodeId::new(2);
        let run = |corrupt: bool| {
            let cfg_of =
                |i: u32| ProtocolConfig::default().with_record_log(NodeId::new(i) != victim);
            let mut world: World<RingNode> = World::from_nodes(
                (0..4).map(|i| RingNode::new(cfg_of(i))).collect(),
                WorldConfig::default().seed(5),
            );
            for k in 0..20u64 {
                let node = NodeId::new((k % 4) as u32);
                world.schedule_external(SimTime::from_ticks(5 + 7 * k), node, Want::new(k));
            }
            world.run_until(SimTime::from_ticks(60));
            while world.node(victim).holds_token_now() {
                world.step();
            }
            let before = world.node(victim).order_state().chain_calls();
            if corrupt {
                let mut ck = world.node(victim).checkpoint();
                assert!(ck.applied_seq > 0, "nothing applied yet");
                ck.digest ^= 1;
                *world.node_mut(victim) = RingNode::restore(cfg_of(victim.raw()), &ck);
            }
            // Requests stop at t = 138; by t = 400 every node has seen the
            // final window several times over.
            world.run_until(SimTime::from_ticks(400));
            let chained = world.node(victim).order_state().chain_calls() - before;
            let every_oracle = OracleScope {
                prefix: true,
                gaps: true,
                crashed: None,
                dual_token_from: u64::MAX,
                live: true,
            };
            let verdict = check_state_oracles(&world, every_oracle, world.now());
            (chained, verdict)
        };
        let (chained, verdict) = run(false);
        assert!(verdict.is_ok(), "clean run: {verdict:?}");
        let (chained_corrupt, verdict) = run(true);
        assert!(
            matches!(verdict, Err(Violation::PrefixDiverged { a, b, .. }) if a == victim || b == victim),
            "corrupted node went unreported: {verdict:?}"
        );
        assert!(
            chained_corrupt > chained,
            "a refused node chains the window itself ({chained_corrupt} vs {chained} steps)"
        );
    }

    #[test]
    fn tape_file_roundtrip() {
        let tf = TapeFile {
            name: "example".into(),
            protocol: Protocol::Binary,
            space: CaseSpace::Flat,
            mutation: Mutation::BadPrefixSkip,
            note: "prefix property violated between node 0 and node 1 at t=3".into(),
            tape: vec![0, 17, u64::MAX],
        };
        let json = tf.to_json();
        // A flat tape is the version-1 format as first written: no space
        // field, and a tape without one decodes as flat.
        assert!(!json.contains("space"), "{json}");
        let parsed = TapeFile::from_json(&json).expect("roundtrip");
        assert_eq!(parsed, tf);
        assert!(TapeFile::from_json("{}").is_err());
        assert!(TapeFile::from_json("not json").is_err());
    }

    #[test]
    fn sharded_tape_roundtrips_and_replays_through_its_space() {
        let mut g = Gen::from_seed(5);
        let case = gen_shard_case(&mut g, Protocol::Ring, Mutation::None);
        let tf = TapeFile {
            name: "sharded".into(),
            protocol: Protocol::Ring,
            space: CaseSpace::Sharded,
            mutation: Mutation::None,
            note: "sharded regression".into(),
            tape: g.tape().to_vec(),
        };
        let json = tf.to_json();
        assert!(json.contains(r#""space":"shard""#), "{json}");
        let parsed = TapeFile::from_json(&json).expect("roundtrip");
        assert_eq!(parsed, tf);
        let mut g = Gen::from_tape(parsed.tape.clone());
        let rebuilt = parsed.space.gen(&mut g, parsed.protocol, parsed.mutation);
        assert_eq!(format!("{rebuilt:?}"), format!("{case:?}"));
        assert_eq!(
            replay_tape(parsed.space, &parsed.tape, parsed.protocol, parsed.mutation)
                .map(|s| s.grants),
            run_case(&case).map(|s| s.grants)
        );
        let bad = json.replace(r#""shard""#, r#""nowhere""#);
        assert!(TapeFile::from_json(&bad).is_err());
    }

    /// A partition in one shard of a multi-shard case gets the same
    /// dual-token-after-heal oracle as a single-token partition case, and
    /// the run lasts long enough for it to fire; the other shards keep
    /// every oracle, liveness included.
    #[test]
    fn sharded_partition_arms_the_heal_oracle() {
        let mut sm = SplitMix64::new(3);
        let case = loop {
            let mut g = Gen::from_seed(sm.next_u64());
            let case = gen_shard_case(&mut g, Protocol::Ring, Mutation::None);
            if case.partition.is_some() {
                break case;
            }
        };
        let (_, heal, _) = case.partition.unwrap();
        let faulted = case.fault_shard;
        let armed_at = heal + case.settle_ticks();
        for s in 0..case.shards {
            let scope = OracleScope::of(&case, s);
            if s == faulted {
                assert_eq!(scope.dual_token_from, armed_at);
                assert!(!scope.live && !scope.prefix);
                let cfg = case.shard_cfg(s);
                assert!(
                    cfg.token_acks && cfg.regeneration,
                    "partitioned shard needs recovery"
                );
            } else {
                assert_eq!(scope.dual_token_from, u64::MAX);
                assert!(scope.live && scope.prefix && scope.gaps);
            }
        }
        assert!(
            case.horizon() > armed_at,
            "the run ends before the oracle arms"
        );
        run_case(&case).expect("ring keeps one token per shard across the heal");
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation::PrefixDiverged {
            a: NodeId::new(0),
            b: NodeId::new(3),
            at: SimTime::from_ticks(17),
        };
        let s = v.to_string();
        assert!(s.contains("prefix") && s.contains("t=17"), "{s}");
    }
}
