//! Transport-generic conformance harness: the same protocol nodes, the same
//! request script, run over a *real* byte transport and cross-checked
//! against the deterministic [`World`] — identical grant order, identical
//! applied histories.
//!
//! ## How determinism survives real sockets
//!
//! A TCP loopback mesh delivers frames in whatever order the kernel's
//! scheduler lands them; replaying a `World` schedule on top of that looks
//! hopeless until the *driver* owns the clock. Here a single driver thread
//! hosts every node in an [`atp_net::Harness`] and keeps a virtual clock —
//! a totally ordered `(tick, seq)` queue, exactly the order a `World` heap
//! would pop. Every outbound frame is wrapped in a 16-byte envelope
//! `[arrival_tick u64][seq u64]` **assigned by the driver at send time**,
//! shipped through the transport as opaque bytes, and re-inserted into the
//! clock wherever it lands. Landing-order races cannot affect the schedule
//! because the schedule is decided before the bytes leave.
//!
//! The seq-assignment order replicates the original channel harness (which
//! was proven grant-identical to `World`): externals first, then per
//! dispatch its timers, then its sends in destination-major order.
//!
//! After each dispatch the driver receives back exactly the frames it staged
//! to each endpoint, and receives from no other endpoint, so a dispatch
//! costs what it sent rather than what the mesh is.
//!
//! Loss is tolerated, not assumed away: when a fault hook severs sockets
//! mid-run, frames still owed after a real-time grace period are declared
//! lost — at which point the protocols' ack/retransmit machinery (driven by
//! timer entries already in the clock) must recover on its own.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use std::time::{Duration, Instant};

use atp_core::{Checkpoint, EventSource, ProtocolConfig, TokenEvent, Want};
use atp_net::{
    CloseReport, Endpoint, Harness, MsgClass, NodeId, SimTime, Topology, Transport, World,
    WorldConfig,
};

use crate::runner::ProtocolNode;

/// Byte length of the driver's `[arrival_tick][seq]` envelope prefix.
const ENVELOPE_LEN: usize = 16;

/// A pinned scenario: ring size, request script, horizon — everything both
/// engines need to run the identical workload.
#[derive(Debug, Clone)]
pub struct ClusterScript {
    /// Ring size.
    pub n: usize,
    /// Stop dispatching once the virtual clock passes this tick.
    pub horizon: u64,
    /// `(tick, node, payload)` external requests.
    pub requests: Vec<(u64, u32, u64)>,
    /// World / harness RNG seed.
    pub seed: u64,
    /// Protocol configuration every node is built (or restored) with.
    /// Crash–restart campaigns need regeneration + token acks enabled; the
    /// conformance reference keeps the default so both engines agree.
    pub cfg: ProtocolConfig,
}

impl ClusterScript {
    /// The shared five-node scenario used across the conformance suite:
    /// spaced requests plus one same-instant pair.
    pub fn reference(seed: u64) -> Self {
        ClusterScript {
            n: 5,
            horizon: 300,
            requests: vec![
                (5, 1, 11),
                (20, 3, 33),
                (45, 0, 55),
                (70, 4, 77),
                (70, 2, 99),
            ],
            seed,
            cfg: ProtocolConfig::default(),
        }
    }
}

/// A grant, normalized for cross-transport comparison:
/// `(granted_at_tick, origin, origin_seq)`.
pub type GrantRec = (u64, u32, u64);

/// What one engine run produced, in cross-checkable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// All grants, sorted.
    pub grants: Vec<GrantRec>,
    /// Per node: `(applied_seq, history digest)`.
    pub histories: Vec<(u64, u64)>,
}

impl RunOutcome {
    /// Number of `(origin, seq)` request identities granted more than once —
    /// the mutual-exclusion ledger's double-service count. Zero on every
    /// correct run, crash–restart or not.
    pub fn duplicate_grants(&self) -> usize {
        let mut ids: Vec<(u32, u64)> = self.grants.iter().map(|&(_, o, s)| (o, s)).collect();
        ids.sort_unstable();
        ids.windows(2).filter(|w| w[0] == w[1]).count()
    }
}

/// One scheduled node failure for the crash–restart supervisor.
///
/// At (the first dispatch boundary at or after) `at`, the victim's durable
/// state is captured, its transport endpoint is severed, and its harness is
/// discarded; at `restart_at` a fresh process takes its place — warm
/// (restored from the crash-time [`Checkpoint`]) or cold (empty history) —
/// and rejoins through the protocol's own recovery path (`on_recover`).
#[derive(Debug, Clone, Copy)]
pub struct CrashEvent {
    /// Victim node index.
    pub node: u32,
    /// Virtual tick at (or after) which the victim crashes.
    pub at: u64,
    /// Virtual tick at (or after) which it restarts; clamped to after the
    /// crash. Restarts past the horizon never happen.
    pub restart_at: u64,
    /// Warm restart (restore from checkpoint) vs cold (fresh node).
    pub warm: bool,
}

/// What actually happened to one scheduled crash — the measured recovery
/// timeline backing the fault-model experiments.
#[derive(Debug, Clone)]
pub struct CrashRecord {
    /// Victim node index.
    pub node: u32,
    /// Dispatch boundary at which the crash took effect.
    pub crashed_at: u64,
    /// Dispatch boundary at which the restart took effect (`None` if the
    /// run ended first).
    pub restarted_at: Option<u64>,
    /// Whether the restart was warm.
    pub warm: bool,
    /// Highest token generation witnessed anywhere just before the crash.
    pub generation_before: u32,
    /// First tick at which a higher generation was witnessed — i.e. when
    /// Section 5 regeneration replaced a token lost in the crash. `None`
    /// when the crash killed no token (nothing needed regenerating).
    pub regenerated_at: Option<u64>,
    /// First grant anywhere strictly after the crash tick — service
    /// resumption. Filled in post-run from the grant ledger.
    pub first_grant_after: Option<u64>,
}

/// Transport-run extras that have no `World` counterpart.
#[derive(Debug, Clone, Default)]
pub struct TransportStats {
    /// Frames the driver gave up waiting for (severed links, transport
    /// loss). Zero on a healthy transport.
    pub frames_lost: u64,
    /// Inbound frames rejected by the envelope parser or the protocol
    /// codec. Zero unless the transport corrupts bytes.
    pub decode_errors: u64,
    /// Per-endpoint teardown reports (thread-leak accounting).
    pub close_reports: Vec<CloseReport>,
    /// Queued deliveries/timers discarded because their destination was
    /// crashed — a dead process receives nothing.
    pub entries_discarded: u64,
    /// External requests re-queued to after their target's restart.
    pub requests_deferred: u64,
    /// Dispatch boundaries at which two live nodes held tokens of the
    /// *same* generation — the at-most-one-token-per-generation oracle.
    /// Any non-zero value is a safety violation.
    pub dual_possession: u64,
    /// Per-crash recovery timelines (empty when no crashes were scheduled).
    pub crash_records: Vec<CrashRecord>,
}

impl TransportStats {
    /// True when nothing was lost, nothing was undecodable, and every
    /// endpoint joined all of its threads.
    pub fn is_clean(&self) -> bool {
        self.frames_lost == 0
            && self.decode_errors == 0
            && self.close_reports.iter().all(CloseReport::is_clean)
    }
}

/// Knobs for the transport-side driver.
pub struct DriverOptions<E> {
    /// When `Some(k)`, every `k`-th token-class frame is transmitted twice —
    /// a stuttering link layer the handoff watermark must absorb.
    pub dup_every_nth_token: Option<u64>,
    /// How long the driver waits without progress for in-flight frames
    /// before declaring them lost.
    pub loss_grace: Duration,
    /// Invoked once per dispatched clock entry with the endpoints and the
    /// current virtual tick — the fault-injection hook (sever sockets at a
    /// chosen tick; default does nothing).
    #[allow(clippy::type_complexity)]
    pub fault_hook: Option<Box<dyn FnMut(&mut [E], u64)>>,
    /// Scheduled crash–restart events the supervisor executes at dispatch
    /// boundaries. Empty by default.
    pub crashes: Vec<CrashEvent>,
    /// Sample the token-possession oracle after every dispatch even when no
    /// crashes are scheduled (always sampled when `crashes` is non-empty).
    pub check_oracles: bool,
}

impl<E> Default for DriverOptions<E> {
    fn default() -> Self {
        DriverOptions {
            dup_every_nth_token: None,
            loss_grace: Duration::from_secs(5),
            fault_hook: None,
            crashes: Vec::new(),
            check_oracles: false,
        }
    }
}

/// Drains `node`'s events through `drained`, the caller's one buffer, and
/// records its grants.
fn drain_grants<N: EventSource>(
    node: &mut N,
    drained: &mut Vec<TokenEvent>,
    grants: &mut Vec<GrantRec>,
) {
    node.take_events_into(drained);
    for ev in drained.drain(..) {
        if let TokenEvent::Granted { req, at } = ev {
            grants.push((at.ticks(), req.origin.raw(), req.seq));
        }
    }
}

/// Runs the script inside the canonical deterministic [`World`].
pub fn run_in_world<P: ProtocolNode>(script: &ClusterScript) -> RunOutcome {
    let cfg = script.cfg;
    let mut world: World<P> = World::from_nodes(
        (0..script.n).map(|_| P::build(cfg)).collect(),
        WorldConfig::default().seed(script.seed),
    );
    for &(t, node, payload) in &script.requests {
        world.schedule_external(
            SimTime::from_ticks(t),
            NodeId::new(node),
            Want::new(payload),
        );
    }
    world.run_until(SimTime::from_ticks(script.horizon));
    let (mut grants, mut drained) = (Vec::new(), Vec::new());
    let mut histories = Vec::new();
    for i in 0..script.n {
        let id = NodeId::new(i as u32);
        drain_grants(world.node_mut(id), &mut drained, &mut grants);
        let order = world.node(id).order_state();
        histories.push((order.applied_seq(), order.digest().0));
    }
    grants.sort_unstable();
    RunOutcome { grants, histories }
}

/// Builds a `T` mesh and runs the script over it with default options.
///
/// # Errors
///
/// Propagates transport construction failures (socket binds).
pub fn run_on_transport<P: ProtocolNode, T: Transport>(
    script: &ClusterScript,
) -> std::io::Result<(RunOutcome, TransportStats)> {
    let endpoints = T::endpoints(script.n)?;
    Ok(run_on_endpoints::<P, T::Endpoint>(
        script,
        endpoints,
        DriverOptions::default(),
    ))
}

enum ClockEntry {
    /// A frame as the transport returned it: the message follows the
    /// envelope and is decoded in place.
    Deliver {
        from: NodeId,
        framed: Vec<u8>,
    },
    Timer {
        kind: u64,
    },
    Ext(Want),
}

/// One clock entry for node `dest`, ordered by `(tick, seq)` alone (`seq`
/// is unique); the clock holds them [`Reverse`]d, earliest first.
struct Due {
    tick: u64,
    seq: u64,
    dest: usize,
    entry: ClockEntry,
}

impl Due {
    fn key(&self) -> (u64, u64) {
        (self.tick, self.seq)
    }
}

impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Due {}

impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Due {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// The virtual clock: a `(tick, seq)` heap, and the counter that hands out
/// `seq` to clock entries and, through their envelopes, to frames in flight.
#[derive(Default)]
struct Clock {
    due: BinaryHeap<Reverse<Due>>,
    seq: u64,
}

impl Clock {
    fn mint(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Schedules `entry` for `dest` at `tick` under a fresh `seq`.
    fn schedule(&mut self, tick: u64, dest: usize, entry: ClockEntry) {
        let seq = self.mint();
        self.insert(tick, seq, dest, entry);
    }

    fn insert(&mut self, tick: u64, seq: u64, dest: usize, entry: ClockEntry) {
        self.due.push(Reverse(Due {
            tick,
            seq,
            dest,
            entry,
        }));
    }

    /// `(tick, seq)` of the earliest entry.
    fn peek(&self) -> Option<(u64, u64)> {
        self.due.peek().map(|Reverse(d)| d.key())
    }

    /// Removes the earliest entry if it is still the one keyed `key`.
    fn pop_if(&mut self, key: (u64, u64)) -> Option<Due> {
        if self.peek() != Some(key) {
            return None;
        }
        self.due.pop().map(|Reverse(d)| d)
    }

    /// Takes out every entry addressed to `dest`, in key order.
    fn take_addressed_to(&mut self, dest: usize) -> Vec<Due> {
        let (mut taken, kept): (Vec<Due>, Vec<Due>) = std::mem::take(&mut self.due)
            .into_iter()
            .map(|Reverse(d)| d)
            .partition(|d| d.dest == dest);
        self.due = kept.into_iter().map(Reverse).collect();
        taken.sort_unstable();
        taken
    }
}

/// One frame a dispatch emitted, before its envelope:
/// `(source, destination, arrival tick, message bytes)`.
type Outgoing = (usize, usize, u64, Vec<u8>);

/// The driver's side of the transport: it envelopes and stages what the
/// harnesses emit, then takes back into the clock exactly the frames it
/// staged to each endpoint.
///
/// Every endpoint yields one frame per frame staged to it — whole, or, under
/// [`atp_net::ChaosEndpoint`], as a tombstone of its envelope — so counting
/// per destination is exact, and an endpoint nothing was sent to is never
/// asked.
struct Wire<E> {
    endpoints: Vec<E>,
    /// Per endpoint: frames staged to it and not yet received back.
    owed: Vec<u64>,
    /// The endpoints whose `owed` is non-zero.
    waiting: Vec<usize>,
    /// Sum of `owed`.
    inflight: u64,
    /// Set once a frame has been declared lost. From then on a pump drains
    /// every endpoint, so a straggler that lands late goes onto the clock as
    /// itself instead of standing in for a frame still owed.
    lossy: bool,
    loss_grace: Duration,
    dup_every_nth_token: Option<u64>,
    token_frames: u64,
    /// Emitted and not yet transmitted, in emit order.
    sends: Vec<Outgoing>,
    /// Sources to flush after staging, reused across dispatches.
    sources: Vec<usize>,
    /// The one buffer every frame's envelope is built in.
    envelope: Vec<u8>,
}

impl<E: Endpoint> Wire<E> {
    fn new(endpoints: Vec<E>, opts: &DriverOptions<E>) -> Self {
        Wire {
            owed: vec![0; endpoints.len()],
            endpoints,
            waiting: Vec::new(),
            inflight: 0,
            lossy: false,
            loss_grace: opts.loss_grace,
            dup_every_nth_token: opts.dup_every_nth_token,
            token_frames: 0,
            sends: Vec::new(),
            sources: Vec::new(),
            envelope: Vec::new(),
        }
    }

    /// Takes one harness's pending effects at tick `now`: timers go
    /// straight onto the clock, sends wait in emit order for
    /// [`Wire::exchange`].
    fn collect<P: ProtocolNode>(&mut self, h: &mut Harness<P>, now: u64, clock: &mut Clock) {
        let from = h.id().index();
        for ob in h.take_outbound() {
            // One tick per hop: `World`'s default `Latency::Constant(1)`.
            let arrival = now + 1 + ob.hold;
            let bytes = P::encode_msg(&ob.msg);
            if ob.class == MsgClass::Token {
                self.token_frames += 1;
                if let Some(k) = self.dup_every_nth_token {
                    if self.token_frames.is_multiple_of(k) {
                        // The stuttered copy precedes the original, exactly
                        // as the reference channel harness sent it.
                        self.sends
                            .push((from, ob.to.index(), arrival, bytes.clone()));
                    }
                }
            }
            self.sends.push((from, ob.to.index(), arrival, bytes));
        }
        for t in h.take_timers() {
            clock.schedule(now + t.delay, from, ClockEntry::Timer { kind: t.kind });
        }
    }

    /// Transmits the collected sends and puts every one of them back on the
    /// clock before returning.
    fn exchange(&mut self, clock: &mut Clock, stats: &mut TransportStats) {
        self.transmit(clock);
        self.settle(clock, stats);
    }

    /// Envelopes the collected sends destination-major (replicating the
    /// reference harness's drain order), stages them and flushes every
    /// source that staged one.
    fn transmit(&mut self, clock: &mut Clock) {
        self.sends.sort_by_key(|&(_, dest, _, _)| dest);
        for (src, dest, arrival, bytes) in self.sends.drain(..) {
            self.envelope.clear();
            self.envelope.extend_from_slice(&arrival.to_le_bytes());
            self.envelope.extend_from_slice(&clock.mint().to_le_bytes());
            self.envelope.extend_from_slice(&bytes);
            self.endpoints[src].stage(NodeId::new(dest as u32), &self.envelope);
            if self.owed[dest] == 0 {
                self.waiting.push(dest);
            }
            self.owed[dest] += 1;
            self.inflight += 1;
            self.sources.push(src);
        }
        self.sources.sort_unstable();
        self.sources.dedup();
        for &src in &self.sources {
            self.endpoints[src].flush();
        }
        self.sources.clear();
    }

    /// Receives until nothing is owed. When a pump finds nothing it blocks
    /// on one endpoint still owed a frame; frames still owed `loss_grace`
    /// after the last progress, and after one more pump, are lost — severed
    /// links lose frames, and since the schedule was fixed at send time a
    /// straggler cannot reorder it.
    fn settle(&mut self, clock: &mut Clock, stats: &mut TransportStats) {
        let mut deadline: Option<Instant> = None;
        while self.inflight > 0 {
            if self.pump(clock, stats) {
                deadline = None;
                continue;
            }
            let until = *deadline.get_or_insert_with(|| Instant::now() + self.loss_grace);
            let left = until.saturating_duration_since(Instant::now());
            if !left.is_zero() {
                // Real sockets have real latency: wait for one owed frame,
                // then pump every owed endpoint again. Bytes a kernel would
                // not take are still staged, and only this thread flushes.
                self.endpoints.iter_mut().for_each(Endpoint::flush);
                let d = self.waiting[0];
                match self.endpoints[d].recv_timeout(left) {
                    Some((from, framed)) => {
                        self.land(d, from, framed, clock, stats);
                        deadline = None;
                        continue;
                    }
                    None if Instant::now() < until => continue,
                    None => {}
                }
                // The grace ran out during the wait. Frames that landed
                // elsewhere meanwhile are taken, not waited for again.
                self.pump(clock, stats);
            }
            stats.frames_lost += self.inflight;
            self.inflight = 0;
            for d in self.waiting.drain(..) {
                self.owed[d] = 0;
            }
            self.lossy = true;
        }
    }

    /// Receives without waiting what each endpoint is owed (on a lossy run,
    /// everything every endpoint has). Returns whether anything landed.
    fn pump(&mut self, clock: &mut Clock, stats: &mut TransportStats) -> bool {
        let mut landed = false;
        if self.lossy {
            for d in 0..self.endpoints.len() {
                while let Some((from, framed)) = self.endpoints[d].recv_timeout(Duration::ZERO) {
                    self.land(d, from, framed, clock, stats);
                    landed = true;
                }
            }
        } else {
            for k in 0..self.waiting.len() {
                let d = self.waiting[k];
                while self.owed[d] > 0 {
                    let Some((from, framed)) = self.endpoints[d].recv_timeout(Duration::ZERO)
                    else {
                        break;
                    };
                    self.land(d, from, framed, clock, stats);
                    landed = true;
                }
            }
        }
        let owed = &self.owed;
        self.waiting.retain(|&d| owed[d] > 0);
        landed
    }

    /// Puts a frame endpoint `d` received onto the clock at its envelope's
    /// `(tick, seq)`.
    fn land(
        &mut self,
        d: usize,
        from: NodeId,
        framed: Vec<u8>,
        clock: &mut Clock,
        stats: &mut TransportStats,
    ) {
        if self.owed[d] > 0 {
            self.owed[d] -= 1;
            self.inflight -= 1;
        }
        if framed.len() < ENVELOPE_LEN {
            stats.decode_errors += 1;
            return;
        }
        let word = |at: usize| u64::from_le_bytes(framed[at..at + 8].try_into().expect("8 bytes"));
        let (tick, seq) = (word(0), word(8));
        clock.insert(tick, seq, d, ClockEntry::Deliver { from, framed });
    }
}

/// Runs the script over pre-built endpoints — the full driver.
///
/// The virtual clock dispatches exactly one entry at a time; after each
/// dispatch the resulting sends are enveloped, transmitted, and awaited
/// back before the next pop, so the transport is a *physically real but
/// logically transparent* link layer.
pub fn run_on_endpoints<P: ProtocolNode, E: Endpoint>(
    script: &ClusterScript,
    endpoints: Vec<E>,
    mut opts: DriverOptions<E>,
) -> (RunOutcome, TransportStats) {
    assert_eq!(endpoints.len(), script.n, "one endpoint per node");
    let cfg = script.cfg;
    let topology = Topology::ring(script.n);
    let mut harnesses: Vec<Harness<P>> = (0..script.n)
        .map(|i| Harness::new(NodeId::new(i as u32), topology, P::build(cfg), script.seed))
        .collect();

    let mut clock = Clock::default();
    let mut wire = Wire::new(endpoints, &opts);
    let mut stats = TransportStats::default();

    // Crash–restart supervisor state. Events take effect at dispatch
    // boundaries (nothing is in flight there, so a sever loses nothing
    // that the schedule still counts on).
    let mut plan: Vec<CrashEvent> = opts.crashes.clone();
    plan.sort_by_key(|c| (c.at, c.node));
    let mut plan_idx = 0usize;
    let mut pending_restarts: BTreeMap<(u64, u32), bool> = BTreeMap::new();
    let mut dead = vec![false; script.n];
    let mut checkpoints: Vec<Option<Checkpoint>> = vec![None; script.n];
    let oracles = opts.check_oracles || !plan.is_empty();

    for &(t, node, payload) in &script.requests {
        clock.schedule(t, node as usize, ClockEntry::Ext(Want::new(payload)));
    }

    // Init all nodes, then sequence their minted-token sends dest-major —
    // the same order the reference harness's first drain produced.
    for h in harnesses.iter_mut() {
        h.init(SimTime::ZERO);
        wire.collect(h, 0, &mut clock);
    }
    wire.exchange(&mut clock, &mut stats);

    let (mut grants, mut drained) = (Vec::new(), Vec::new());
    while let Some((at, key_seq)) = clock.peek() {
        if at > script.horizon {
            break;
        }

        // Restarts due at or before this boundary: a fresh process replaces
        // the dead harness and rejoins via the recovery path (never
        // `on_init` — a re-initialized node would mint a second token).
        while let Some((&(rt, node), &warm)) = pending_restarts.iter().next() {
            if rt > at {
                break;
            }
            pending_restarts.remove(&(rt, node));
            let v = node as usize;
            let rebuilt = if warm {
                match checkpoints[v].as_ref() {
                    Some(ck) => P::restore(cfg, ck),
                    None => P::build(cfg),
                }
            } else {
                P::build(cfg)
            };
            harnesses[v] = Harness::new(NodeId::new(node), topology, rebuilt, script.seed);
            harnesses[v].recover(SimTime::from_ticks(at));
            dead[v] = false;
            if let Some(rec) = stats
                .crash_records
                .iter_mut()
                .rev()
                .find(|r| r.node == node && r.restarted_at.is_none())
            {
                rec.restarted_at = Some(at);
            }
            wire.collect(&mut harnesses[v], at, &mut clock);
            wire.exchange(&mut clock, &mut stats);
        }

        // Crashes due at or before this boundary: capture durable state,
        // sever the socket mesh, purge everything addressed to the corpse.
        while plan_idx < plan.len() && plan[plan_idx].at <= at {
            let ev = plan[plan_idx];
            plan_idx += 1;
            let v = ev.node as usize;
            if v >= script.n || dead[v] {
                continue;
            }
            let gen_before = harnesses
                .iter()
                .map(|h| h.node().token_generation())
                .max()
                .unwrap_or(0);
            let h = &mut harnesses[v];
            drain_grants(h.node_mut(), &mut drained, &mut grants);
            checkpoints[v] = Some(h.node().checkpoint());
            wire.endpoints[v].sever();
            dead[v] = true;
            let restart_at = ev.restart_at.max(at + 1);
            pending_restarts.insert((restart_at, ev.node), ev.warm);
            stats.crash_records.push(CrashRecord {
                node: ev.node,
                crashed_at: at,
                restarted_at: None,
                warm: ev.warm,
                generation_before: gen_before,
                regenerated_at: None,
                first_grant_after: None,
            });
            // Frames and timers already queued for the victim die with it;
            // external requests belong to the environment and are
            // re-presented once the node is back, under fresh seqs handed
            // out in key order.
            for doomed in clock.take_addressed_to(v) {
                match doomed.entry {
                    ClockEntry::Ext(want) => {
                        let tick = restart_at.max(doomed.tick);
                        clock.schedule(tick, v, ClockEntry::Ext(want));
                        stats.requests_deferred += 1;
                    }
                    _ => stats.entries_discarded += 1,
                }
            }
        }

        if let Some(hook) = opts.fault_hook.as_mut() {
            hook(&mut wire.endpoints, at);
        }
        // The entry may itself have been purged or deferred by a crash that
        // just took effect.
        let Some(Due {
            dest, entry: ev, ..
        }) = clock.pop_if((at, key_seq))
        else {
            continue;
        };
        if dead[dest] {
            // Addressed to the corpse after the crash boundary (peers keep
            // transmitting until the protocol notices): defer externals,
            // drop the rest.
            match ev {
                ClockEntry::Ext(want) => {
                    let rt = pending_restarts
                        .iter()
                        .find(|((_, n), _)| *n as usize == dest)
                        .map(|(&(t, _), _)| t);
                    match rt {
                        Some(rt) => {
                            clock.schedule(rt, dest, ClockEntry::Ext(want));
                            stats.requests_deferred += 1;
                        }
                        None => stats.entries_discarded += 1,
                    }
                }
                _ => stats.entries_discarded += 1,
            }
            continue;
        }
        let h = &mut harnesses[dest];
        let now = SimTime::from_ticks(at);
        match ev {
            ClockEntry::Deliver { from, framed } => match P::decode_msg(&framed[ENVELOPE_LEN..]) {
                Ok(msg) => h.deliver(now, from, msg),
                Err(_) => {
                    stats.decode_errors += 1;
                    continue;
                }
            },
            ClockEntry::Timer { kind } => h.fire_timer(now, kind),
            ClockEntry::Ext(want) => h.external(now, want),
        }
        wire.collect(h, at, &mut clock);
        wire.exchange(&mut clock, &mut stats);

        // Token-possession oracle: two live holders of the same generation
        // is a mutual-exclusion breach no later check could reconstruct.
        if oracles {
            let mut gens: Vec<u32> = Vec::new();
            let mut max_gen = 0u32;
            for (i, h) in harnesses.iter().enumerate() {
                let g = h.node().token_generation();
                max_gen = max_gen.max(g);
                if !dead[i] && h.node().holds_token_now() {
                    gens.push(g);
                }
            }
            gens.sort_unstable();
            if gens.windows(2).any(|w| w[0] == w[1]) {
                stats.dual_possession += 1;
            }
            for rec in stats.crash_records.iter_mut() {
                if rec.regenerated_at.is_none() && max_gen > rec.generation_before {
                    rec.regenerated_at = Some(at);
                }
            }
        }
    }

    let mut histories = Vec::new();
    for h in harnesses.iter_mut() {
        drain_grants(h.node_mut(), &mut drained, &mut grants);
        let order = h.node().order_state();
        histories.push((order.applied_seq(), order.digest().0));
    }
    grants.sort_unstable();
    for rec in stats.crash_records.iter_mut() {
        rec.first_grant_after = grants.iter().map(|g| g.0).find(|&t| t > rec.crashed_at);
    }
    stats.close_reports = wire.endpoints.iter_mut().map(Endpoint::close).collect();
    (RunOutcome { grants, histories }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_core::BinaryNode;
    use atp_net::{ChanEndpoint, ChanTransport};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;

    /// What the driver asked of a mesh's endpoints, summed over all of them.
    #[derive(Default)]
    struct Tally {
        staged: AtomicU64,
        received: AtomicU64,
        empty: AtomicU64,
    }

    /// Counts stages, and receives that returned a frame or nothing.
    struct Counting<E> {
        inner: E,
        tally: Arc<Tally>,
    }

    fn counting<E: Endpoint>(endpoints: Vec<E>) -> (Vec<Counting<E>>, Arc<Tally>) {
        let tally = Arc::new(Tally::default());
        let wrapped = endpoints
            .into_iter()
            .map(|inner| Counting {
                inner,
                tally: Arc::clone(&tally),
            })
            .collect();
        (wrapped, tally)
    }

    impl<E: Endpoint> Endpoint for Counting<E> {
        fn id(&self) -> NodeId {
            self.inner.id()
        }
        fn stage(&mut self, to: NodeId, frame: &[u8]) {
            self.tally.staged.fetch_add(1, Relaxed);
            self.inner.stage(to, frame);
        }
        fn flush(&mut self) {
            self.inner.flush();
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
            let got = self.inner.recv_timeout(timeout);
            let count = if got.is_some() {
                &self.tally.received
            } else {
                &self.tally.empty
            };
            count.fetch_add(1, Relaxed);
            got
        }
        fn frames_lost(&self) -> u64 {
            self.inner.frames_lost()
        }
        fn close(&mut self) -> CloseReport {
            self.inner.close()
        }
    }

    /// A channel endpoint that behaves like a socket: a frame becomes
    /// visible `delay` after the flush that sent it, except that the
    /// `late.0`-th frame staged here takes `late.1` longer. A late frame
    /// does not hold up the frames behind it.
    struct Sluggish {
        inner: ChanEndpoint,
        epoch: Instant,
        delay: Duration,
        late: Option<(u64, Duration)>,
        staged: u64,
        unflushed: Vec<(NodeId, Duration, Vec<u8>)>,
        /// Received from the channel, with the instant each is visible.
        held: Vec<(Instant, NodeId, Vec<u8>)>,
    }

    fn sluggish(n: usize, delay: Duration) -> Vec<Sluggish> {
        let epoch = Instant::now();
        ChanTransport::endpoints(n)
            .expect("infallible")
            .into_iter()
            .map(|inner| Sluggish {
                inner,
                epoch,
                delay,
                late: None,
                staged: 0,
                unflushed: Vec::new(),
                held: Vec::new(),
            })
            .collect()
    }

    impl Sluggish {
        fn hold(&mut self, (from, stamped): (NodeId, Vec<u8>)) {
            let nanos = u64::from_le_bytes(stamped[..8].try_into().expect("8 bytes"));
            let visible = self.epoch + Duration::from_nanos(nanos);
            self.held.push((visible, from, stamped[8..].to_vec()));
        }
    }

    impl Endpoint for Sluggish {
        fn id(&self) -> NodeId {
            self.inner.id()
        }
        fn stage(&mut self, to: NodeId, frame: &[u8]) {
            self.staged += 1;
            let extra = match self.late {
                Some((nth, extra)) if nth == self.staged => extra,
                _ => Duration::ZERO,
            };
            self.unflushed.push((to, extra, frame.to_vec()));
        }
        fn flush(&mut self) {
            // Each frame carries the instant it becomes visible.
            let sent = self.epoch.elapsed() + self.delay;
            for (to, extra, frame) in std::mem::take(&mut self.unflushed) {
                let mut stamped = ((sent + extra).as_nanos() as u64).to_le_bytes().to_vec();
                stamped.extend_from_slice(&frame);
                self.inner.stage(to, &stamped);
            }
            self.inner.flush();
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
            let until = Instant::now() + timeout;
            loop {
                while let Some(frame) = self.inner.recv_timeout(Duration::ZERO) {
                    self.hold(frame);
                }
                let now = Instant::now();
                if let Some(i) = self.held.iter().position(|h| h.0 <= now) {
                    let (_, from, frame) = self.held.remove(i);
                    return Some((from, frame));
                }
                if now >= until {
                    return None;
                }
                let next = self.held.iter().map(|h| h.0).fold(until, Instant::min);
                if let Some(frame) = self.inner.recv_timeout(next - now) {
                    self.hold(frame);
                }
            }
        }
        fn frames_lost(&self) -> u64 {
            self.inner.frames_lost()
        }
        fn close(&mut self) -> CloseReport {
            self.inner.close()
        }
    }

    /// Over channels every frame is there once flushed, so the driver
    /// receives exactly the frames it staged and never comes back empty.
    #[test]
    fn a_dispatch_receives_exactly_the_frames_it_sent() {
        let script = ClusterScript::reference(7);
        let (endpoints, tally) = counting(ChanTransport::endpoints(script.n).expect("infallible"));
        let (out, stats) =
            run_on_endpoints::<BinaryNode, _>(&script, endpoints, DriverOptions::default());
        assert_eq!(out, run_in_world::<BinaryNode>(&script));
        assert!(stats.is_clean(), "{stats:?}");
        let staged = tally.staged.load(Relaxed);
        assert!(staged > 0);
        assert_eq!(tally.empty.load(Relaxed), 0, "a receive came back empty");
        assert_eq!(tally.received.load(Relaxed), staged);
    }

    /// On links with real latency the driver blocks on an owed frame rather
    /// than polling: the schedule is unchanged and a frame costs at most
    /// three receives.
    #[test]
    fn slow_links_are_waited_for_not_polled() {
        let script = ClusterScript::reference(7);
        let (endpoints, tally) = counting(sluggish(script.n, Duration::from_millis(2)));
        let (out, stats) =
            run_on_endpoints::<BinaryNode, _>(&script, endpoints, DriverOptions::default());
        assert_eq!(out, run_in_world::<BinaryNode>(&script));
        assert!(stats.is_clean(), "{stats:?}");
        let staged = tally.staged.load(Relaxed);
        let receives = tally.received.load(Relaxed) + tally.empty.load(Relaxed);
        assert_eq!(tally.received.load(Relaxed), staged);
        assert!(
            receives <= 3 * staged,
            "{receives} receives for {staged} frames"
        );
    }

    /// A frame that never arrives is declared lost once the grace runs out,
    /// and the run goes on without it.
    #[test]
    fn a_dropped_frame_is_declared_lost_after_the_grace() {
        let script = ClusterScript::reference(7);
        let mut endpoints = sluggish(script.n, Duration::ZERO);
        endpoints[0].late = Some((2, Duration::from_secs(3600)));
        let opts = DriverOptions {
            loss_grace: Duration::from_millis(20),
            ..DriverOptions::default()
        };
        let (_, stats) = run_on_endpoints::<BinaryNode, _>(&script, endpoints, opts);
        assert_eq!(stats.frames_lost, 1, "{stats:?}");
        assert_eq!(stats.decode_errors, 0, "{stats:?}");
    }

    /// A frame that turns up after it was declared lost goes onto the clock
    /// as itself; it does not stand in for a later frame to its endpoint,
    /// which would then be left behind in the channel.
    #[test]
    fn a_straggler_is_taken_as_itself() {
        let mut script = ClusterScript::reference(7);
        // Retransmission keeps frames moving after the loss, so the run is
        // still going when the straggler turns up.
        script.cfg = ProtocolConfig::default().with_token_acks(true);
        let mut endpoints = sluggish(script.n, Duration::from_millis(1));
        endpoints[0].late = Some((2, Duration::from_millis(60)));
        let (endpoints, tally) = counting(endpoints);
        let opts = DriverOptions {
            loss_grace: Duration::from_millis(20),
            ..DriverOptions::default()
        };
        let (_, stats) = run_on_endpoints::<BinaryNode, _>(&script, endpoints, opts);
        assert_eq!(stats.frames_lost, 1, "{stats:?}");
        assert_eq!(tally.received.load(Relaxed), tally.staged.load(Relaxed));
    }

    /// Kill the node most likely to be sitting on the idle token (node 3,
    /// shortly after its grant), warm-restart it later, and require the
    /// full recovery story: Section-5 regeneration replaces the token, all
    /// scripted requests are still served exactly once, and no two live
    /// nodes ever hold same-generation tokens.
    #[test]
    fn crash_restart_supervisor_recovers_over_channels() {
        let mut script = ClusterScript::reference(7);
        script.cfg = ProtocolConfig::default()
            .with_regeneration(0)
            .with_token_acks(true);
        script.horizon = 400;
        let endpoints = ChanTransport::endpoints(script.n).expect("infallible");
        let opts = DriverOptions {
            crashes: vec![CrashEvent {
                node: 3,
                at: 40,
                restart_at: 110,
                warm: true,
            }],
            ..DriverOptions::default()
        };
        let (out, stats) = run_on_endpoints::<BinaryNode, _>(&script, endpoints, opts);
        assert_eq!(
            out.grants.len(),
            script.requests.len(),
            "every scripted request must be served despite the crash: {:?}",
            out.grants
        );
        assert_eq!(out.duplicate_grants(), 0, "{:?}", out.grants);
        assert_eq!(stats.dual_possession, 0);
        assert_eq!(stats.frames_lost, 0);
        let rec = &stats.crash_records[0];
        assert_eq!(rec.node, 3);
        assert!(rec.restarted_at.is_some(), "{rec:?}");
        assert!(
            rec.regenerated_at.is_some(),
            "the token died with node 3, so regeneration must have fired: {rec:?}"
        );
        assert!(
            rec.first_grant_after.is_some(),
            "service must resume after the crash: {rec:?}"
        );
    }

    /// A cold restart rejoins with empty history; requests deferred past
    /// the outage are still served and histories stay consistent on the
    /// survivors.
    #[test]
    fn cold_restart_defers_requests_into_the_new_life() {
        let mut script = ClusterScript::reference(7);
        script.cfg = ProtocolConfig::default()
            .with_regeneration(0)
            .with_token_acks(true);
        script.horizon = 400;
        // Node 4's only request arrives at 70, inside its outage window —
        // the supervisor must hold it until the cold process is back.
        let endpoints = ChanTransport::endpoints(script.n).expect("infallible");
        let opts = DriverOptions {
            crashes: vec![CrashEvent {
                node: 4,
                at: 60,
                restart_at: 130,
                warm: false,
            }],
            ..DriverOptions::default()
        };
        let (out, stats) = run_on_endpoints::<BinaryNode, _>(&script, endpoints, opts);
        assert_eq!(out.grants.len(), script.requests.len(), "{:?}", out.grants);
        assert_eq!(out.duplicate_grants(), 0, "{:?}", out.grants);
        assert_eq!(stats.dual_possession, 0);
        assert!(stats.requests_deferred >= 1, "{stats:?}");
        assert!(
            out.grants
                .iter()
                .any(|&(t, origin, _)| origin == 4 && t >= 130),
            "node 4's deferred request must be granted after its restart: {:?}",
            out.grants
        );
    }

    #[test]
    fn reference_script_matches_world_over_channels() {
        let script = ClusterScript::reference(7);
        let world = run_in_world::<BinaryNode>(&script);
        assert_eq!(world.grants.len(), script.requests.len());
        let (chan, stats) =
            run_on_transport::<BinaryNode, ChanTransport>(&script).expect("infallible");
        assert_eq!(world, chan);
        assert!(stats.is_clean(), "{stats:?}");
    }
}
