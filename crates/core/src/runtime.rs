//! A real deployment of the token-passing protocols, off the simulator.
//!
//! One **reactor thread** hosts every node of a cluster, each through an
//! [`atp_net::Harness`]; messages travel between the nodes as **encoded byte
//! frames** (see [`crate::codec`]) over a pluggable byte [`Transport`] —
//! in-process mpsc channels by default ([`Cluster::start`]), or real
//! loopback TCP sockets ([`Cluster::start_on`] with
//! [`atp_net::TcpTransport`]). The exact on-the-wire protocol is exercised
//! either way. Ticks are mapped to wall-clock time through
//! [`ClusterConfig::tick`].
//!
//! The cluster is generic over `P:` [`WireProtocol`], defaulting to System
//! BinarySearch; any of the four protocol families deploys unchanged.
//!
//! The reactor takes back first the frames it staged, then anything else
//! queued; with nothing owed it blocks until the next due timer on the
//! *front door*, an in-process channel carrying [`Cluster::request`]'s
//! wants and the order to stop. It wakes on arrival, never on a poll, and a
//! frame between two nodes costs no thread hand-off on either backend: the
//! reactor writes every frame and reads it back itself, from a channel or
//! from its own end of a TCP connection. [`Cluster`] and [`ShardedCluster`]
//! run the same reactor over a different `Plane`.
//!
//! A node keeps its place in the global history as counters only (applied
//! length and digest), never a copy of the entries: the node that commits
//! an entry reports it once, in its [`TokenEvent::Released`] event, and no
//! node emits [`TokenEvent::Delivered`].
//!
//! Inbound frames are **untrusted network input**: frames that fail to
//! decode are counted ([`Cluster::decode_errors`]) and dropped, never
//! panicked on — a peer speaking garbage cannot take a node down. Requests
//! never travel as frames, so no bytes from the network can act as one.
//!
//! ```rust
//! use atp_core::{Cluster, ClusterConfig, TokenEvent};
//! use atp_net::NodeId;
//! use std::time::Duration;
//!
//! let cluster: Cluster = Cluster::start(ClusterConfig::new(4));
//! cluster.request(NodeId::new(2), 42);
//! let granted = cluster.await_grant(NodeId::new(2), Duration::from_secs(5));
//! assert!(granted);
//! cluster.shutdown();
//! ```

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use atp_net::{
    ChanTransport, CloseReport, Endpoint, Harness, NodeId, SimTime, TimerRequest, Topology,
    Transport,
};

use crate::binary::BinaryNode;
use crate::codec::{decode_shard_frame, encode_shard_frame};
use crate::config::ProtocolConfig;
use crate::event::{TokenEvent, Want};
use crate::shard::{ShardId, ShardMap};
use crate::wire::WireProtocol;

/// Configuration for a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (all hosted by one reactor thread).
    pub n: usize,
    /// Protocol tunables. The default enables adaptive token speed so an
    /// idle cluster does not spin the token at channel speed. `record_log`
    /// is not read: a runtime node keeps no copy of the history (see
    /// [`TokenEvent::Released`] for where the order is reported).
    pub protocol: ProtocolConfig,
    /// Wall-clock duration of one simulated tick.
    pub tick: Duration,
    /// RNG seed base (node `i` uses `seed + i`).
    pub seed: u64,
}

impl ClusterConfig {
    /// Sensible defaults for `n` nodes: 1 ms ticks, adaptive token speed.
    pub fn new(n: usize) -> Self {
        ClusterConfig {
            n,
            protocol: ProtocolConfig::default()
                .with_adaptive_speed(true)
                .with_max_idle_pass_ticks(64),
            tick: Duration::from_millis(1),
            seed: 0,
        }
    }

    /// Overrides the protocol configuration.
    pub fn with_protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.protocol = protocol;
        self
    }

    /// Overrides the tick duration.
    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// What the front door hands the reactor: what a real deployment would get
/// from each node's local host. It is typed and in-process, so it can be
/// neither lost nor forged by a peer.
enum DoorMsg {
    /// An external stimulus for one protocol instance of one node (shard 0
    /// on the single-token plane).
    Want(NodeId, ShardId, Want),
    /// Leave the reactor loop and close every endpoint.
    Stop,
}

/// What differs between the single-token and the sharded plane. Everything
/// else about hosting protocol instances is the [`Reactor`].
trait Plane {
    /// One element of the cluster's merged event stream.
    type Event: Send + 'static;
    /// An encoded protocol message of `shard` as it goes on the wire.
    fn wrap(shard: ShardId, inner: Vec<u8>) -> Vec<u8>;
    /// The inverse of [`Plane::wrap`] on untrusted bytes.
    fn unwrap(frame: &[u8]) -> Option<(ShardId, &[u8])>;
    fn event(shard: ShardId, node: NodeId, ev: TokenEvent) -> Self::Event;
}

/// One token, frames on the wire exactly as the protocol encodes them.
struct Bare;

impl Plane for Bare {
    type Event = (NodeId, TokenEvent);
    fn wrap(_: ShardId, inner: Vec<u8>) -> Vec<u8> {
        inner
    }
    fn unwrap(frame: &[u8]) -> Option<(ShardId, &[u8])> {
        Some((ShardId(0), frame))
    }
    fn event(_: ShardId, node: NodeId, ev: TokenEvent) -> Self::Event {
        (node, ev)
    }
}

/// `K` tokens, every frame in a shard envelope.
struct Enveloped;

impl Plane for Enveloped {
    type Event = (ShardId, NodeId, TokenEvent);
    fn wrap(shard: ShardId, inner: Vec<u8>) -> Vec<u8> {
        encode_shard_frame(shard.0, &inner)
    }
    fn unwrap(frame: &[u8]) -> Option<(ShardId, &[u8])> {
        let (shard, inner) = decode_shard_frame(frame).ok()?;
        Some((ShardId(shard), inner))
    }
    fn event(shard: ShardId, node: NodeId, ev: TokenEvent) -> Self::Event {
        (shard, node, ev)
    }
}

/// Counters the reactor adds to and the cluster reads.
struct Shared {
    /// Grants per (shard, node), shard-major.
    grants: Box<[AtomicU64]>,
    decode_errors: AtomicU64,
    frames_lost: AtomicU64,
}

/// The reactor, door and event stream behind a [`Cluster`] or a
/// [`ShardedCluster`].
struct Runtime<Ev> {
    n: usize,
    door: Sender<DoorMsg>,
    events_rx: Receiver<Ev>,
    reactor: Option<JoinHandle<Vec<CloseReport>>>,
    shared: Arc<Shared>,
}

impl<Ev> Runtime<Ev> {
    /// Starts the reactor thread hosting `config.n` nodes, each with one
    /// instance of `P` per element of `shards` (`config.protocol` itself is
    /// not looked at).
    fn start_on<P: WireProtocol, T: Transport, H: Plane<Event = Ev>>(
        config: ClusterConfig,
        shards: Vec<ProtocolConfig>,
    ) -> std::io::Result<Self>
    where
        Ev: Send + 'static,
    {
        let n = config.n;
        assert!(n > 0, "cluster needs at least one node");
        let endpoints = T::endpoints(n)?;
        let (door, requests) = channel();
        let (events_tx, events_rx) = channel();
        let shared = Arc::new(Shared {
            grants: (0..n * shards.len()).map(|_| AtomicU64::new(0)).collect(),
            decode_errors: AtomicU64::new(0),
            frames_lost: AtomicU64::new(0),
        });
        let seed = move |v: usize| config.seed.wrapping_add(v as u64);
        // Each instance has its own generation space (shards never share
        // frames) and a shard-namespaced RNG seed. None keeps a log: all N
        // nodes share this process, and a log per node would hold every entry
        // N times over while `Released` already reports each one once.
        let build = move |v: usize| -> Vec<Harness<P>> {
            let instance = |(s, cfg): (u64, &ProtocolConfig)| {
                let id = NodeId::new(v as u32);
                let node = P::build(cfg.with_record_log(false));
                Harness::new(id, Topology::ring(n), node, seed(v) ^ (s << 32))
            };
            (0u64..).zip(&shards).map(instance).collect()
        };
        let counters = Arc::clone(&shared);
        // Built on the reactor thread: a protocol instance need not be `Send`.
        let reactor = std::thread::spawn(move || {
            let reactor = Reactor::<P, _, H> {
                harnesses: (0..n).map(build).collect(),
                config,
                start: Instant::now(),
                endpoints,
                owed: vec![0; n],
                written_off: 0,
                heap: BinaryHeap::new(),
                seq: 0,
                drained: Vec::new(),
                events: Vec::with_capacity(EVENT_BATCH),
                events_tx,
                shared: counters,
            };
            reactor.run(&requests)
        });
        Ok(Runtime {
            n,
            door,
            events_rx,
            reactor: Some(reactor),
            shared,
        })
    }

    /// Blocks until an event satisfies `wanted`, or `timeout` elapses.
    fn await_event(&self, timeout: Duration, mut wanted: impl FnMut(&Ev) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            match self.events_rx.recv_timeout(deadline - now) {
                Ok(ev) if wanted(&ev) => return true,
                Ok(_) => continue,
                Err(_) => return false,
            }
        }
    }

    fn grants(&self) -> impl Iterator<Item = u64> + '_ {
        self.shared.grants.iter().map(|g| g.load(Ordering::Relaxed))
    }

    /// Stops and joins the reactor: one close report per node, or the panic
    /// of the reactor thread (a bug in a protocol). Idempotent.
    fn stop(&mut self) -> std::thread::Result<Vec<CloseReport>> {
        let _ = self.door.send(DoorMsg::Stop);
        self.reactor.take().map_or(Ok(Vec::new()), JoinHandle::join)
    }
}

impl<Ev> Drop for Runtime<Ev> {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A handle for injecting requests into one node of a running [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterHandle {
    node: NodeId,
    door: Sender<DoorMsg>,
}

impl ClusterHandle {
    /// The node this handle addresses.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Makes the node ready: it will acquire the token and broadcast
    /// `payload`. Watch the cluster's event stream for the grant. Wants
    /// sent to one node reach it in the order they were sent, whichever
    /// handles sent them. A handle that outlives its cluster sends nowhere.
    pub fn want(&self, payload: u64) {
        let want = DoorMsg::Want(self.node, ShardId(0), Want::new(payload));
        let _ = self.door.send(want);
    }
}

/// A running token-passing cluster.
pub struct Cluster<P: WireProtocol = BinaryNode> {
    rt: Runtime<(NodeId, TokenEvent)>,
    _protocol: std::marker::PhantomData<P>,
}

impl<P: WireProtocol> std::fmt::Debug for Cluster<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("protocol", &P::LABEL)
            .field("n", &self.rt.n)
            .field("grants", &self.grants())
            .finish()
    }
}

impl<P: WireProtocol> Cluster<P> {
    /// Starts `config.n` nodes over in-process channels and mints the token
    /// at node 0.
    ///
    /// # Panics
    ///
    /// Panics if `config.n == 0`.
    pub fn start(config: ClusterConfig) -> Self {
        Cluster::start_on::<ChanTransport>(config).expect("channel transport is infallible")
    }

    /// Starts the cluster on an arbitrary byte transport (e.g.
    /// [`atp_net::TcpTransport`] for real loopback sockets). The mesh is
    /// built with `config.n` endpoints, one per node.
    ///
    /// # Errors
    ///
    /// Propagates transport construction failures (socket binds).
    ///
    /// # Panics
    ///
    /// Panics if `config.n == 0`.
    pub fn start_on<T: Transport>(config: ClusterConfig) -> std::io::Result<Self> {
        let shards = vec![config.protocol];
        Ok(Cluster {
            rt: Runtime::start_on::<P, T, Bare>(config, shards)?,
            _protocol: std::marker::PhantomData,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.rt.n
    }

    /// Always `false`: clusters have at least one node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// A cloneable handle to one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn handle(&self, node: NodeId) -> ClusterHandle {
        assert!(node.index() < self.rt.n, "node outside the cluster");
        ClusterHandle {
            node,
            door: self.rt.door.clone(),
        }
    }

    /// Makes `node` ready with `payload` (shorthand for
    /// [`Cluster::handle`] + [`ClusterHandle::want`]).
    pub fn request(&self, node: NodeId, payload: u64) {
        self.handle(node).want(payload);
    }

    /// The merged event stream of all nodes.
    pub fn events(&self) -> &Receiver<(NodeId, TokenEvent)> {
        &self.rt.events_rx
    }

    /// Blocks until `node` reports a grant, or `timeout` elapses.
    /// Other events arriving in between are discarded.
    pub fn await_grant(&self, node: NodeId, timeout: Duration) -> bool {
        self.await_grant_observing(node, timeout, |_, _| {})
    }

    /// [`Cluster::await_grant`] that first shows `observe` every event it
    /// takes off the stream, the awaited grant included.
    pub fn await_grant_observing(
        &self,
        node: NodeId,
        timeout: Duration,
        mut observe: impl FnMut(NodeId, &TokenEvent),
    ) -> bool {
        self.rt.await_event(timeout, |(who, ev)| {
            observe(*who, ev);
            *who == node && matches!(ev, TokenEvent::Granted { .. })
        })
    }

    /// Per-node grant counters observed so far.
    pub fn grants(&self) -> Vec<u64> {
        self.rt.grants().collect()
    }

    /// Inbound frames that failed to decode (and were dropped). Nonzero
    /// means a peer — or an interloper — sent bytes that are not valid
    /// protocol frames; the protocol's retransmit machinery covers any
    /// real frame mangled in transit.
    pub fn decode_errors(&self) -> u64 {
        self.rt.shared.decode_errors.load(Ordering::Relaxed)
    }

    /// Frames the transport dropped (unreachable peers, severed streams),
    /// summed over all nodes, as counted so far.
    pub fn frames_lost(&self) -> u64 {
        self.rt.shared.frames_lost.load(Ordering::Relaxed)
    }

    /// Stops the reactor, waits for it to exit, and returns each node's
    /// transport teardown report (assert [`CloseReport::is_clean`] to prove
    /// no thread leaked). A panic of the reactor is raised again here.
    /// Dropping the cluster stops and joins the same way, silently.
    pub fn shutdown(mut self) -> Vec<CloseReport> {
        self.rt.stop().unwrap_or_else(|p| resume_unwind(p))
    }
}

/// Configuration for a [`ShardedCluster`].
#[derive(Debug, Clone)]
pub struct ShardedClusterConfig {
    /// Number of nodes (all hosted by one reactor thread).
    pub n: usize,
    /// Number of shards `K` (independent tokens).
    pub shards: u16,
    /// Protocol tunables applied to every shard; each shard's
    /// `initial_holder` is overridden with its consistent-hash home, and
    /// `record_log` is not read (see [`ClusterConfig::protocol`]).
    pub protocol: ProtocolConfig,
    /// Wall-clock duration of one simulated tick.
    pub tick: Duration,
    /// RNG seed base (node `i`, shard `s` uses `seed + i` namespaced by `s`).
    pub seed: u64,
}

impl ShardedClusterConfig {
    /// Sensible defaults for `n` nodes and `k` shards.
    pub fn new(n: usize, shards: u16) -> Self {
        ShardedClusterConfig {
            n,
            shards,
            protocol: ProtocolConfig::default()
                .with_adaptive_speed(true)
                .with_max_idle_pass_ticks(64),
            tick: Duration::from_millis(1),
            seed: 0,
        }
    }

    /// Overrides the protocol configuration.
    pub fn with_protocol(mut self, protocol: ProtocolConfig) -> Self {
        self.protocol = protocol;
        self
    }

    /// Overrides the tick duration.
    pub fn with_tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A running multi-token cluster: `K` independent instances of protocol
/// `P` multiplexed over one transport, with **key-addressed** requests.
///
/// Callers no longer pick a node: [`ShardedCluster::request`] hashes the
/// key to a shard ([`ShardMap::shard_of_key`]), and the `Want` enters at
/// the shard's consistent-hash home node. On the wire every frame is a
/// [`crate::encode_shard_frame`] envelope; the reactor demuxes each node's
/// frames by shard id into one [`Harness`] per shard, so a frame from shard
/// *i* can never perturb shard *j*.
///
/// ```rust
/// use atp_core::{ShardedCluster, ShardedClusterConfig};
/// use std::time::Duration;
///
/// let cluster: ShardedCluster = ShardedCluster::start(
///     ShardedClusterConfig::new(3, 4).with_tick(Duration::from_micros(200)),
/// );
/// cluster.request(0xfeed, 42); // key-addressed: no NodeId in sight
/// assert!(cluster.await_grant(0xfeed, Duration::from_secs(10)));
/// cluster.shutdown();
/// ```
pub struct ShardedCluster<P: WireProtocol = BinaryNode> {
    map: ShardMap,
    rt: Runtime<(ShardId, NodeId, TokenEvent)>,
    _protocol: std::marker::PhantomData<P>,
}

impl<P: WireProtocol> std::fmt::Debug for ShardedCluster<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCluster")
            .field("protocol", &P::LABEL)
            .field("n", &self.rt.n)
            .field("shards", &self.map.shards())
            .finish()
    }
}

impl<P: WireProtocol> ShardedCluster<P> {
    /// Starts `config.n` nodes over in-process channels, each hosting
    /// `config.shards` protocol instances.
    ///
    /// # Panics
    ///
    /// Panics if `config.n == 0` or `config.shards == 0`.
    pub fn start(config: ShardedClusterConfig) -> Self {
        ShardedCluster::start_on::<ChanTransport>(config).expect("channel transport is infallible")
    }

    /// Starts the sharded cluster on an arbitrary byte transport.
    ///
    /// # Errors
    ///
    /// Propagates transport construction failures (socket binds).
    ///
    /// # Panics
    ///
    /// Panics if `config.n == 0` or `config.shards == 0`.
    pub fn start_on<T: Transport>(config: ShardedClusterConfig) -> std::io::Result<Self> {
        let map = ShardMap::new(config.shards, config.n);
        // Each shard's token starts at its consistent-hash home.
        let shards = map
            .owners()
            .iter()
            .map(|&home| config.protocol.with_initial_holder(home));
        let shards = shards.collect();
        let config = ClusterConfig::new(config.n)
            .with_tick(config.tick)
            .with_seed(config.seed);
        Ok(ShardedCluster {
            map,
            rt: Runtime::start_on::<P, T, Enveloped>(config, shards)?,
            _protocol: std::marker::PhantomData,
        })
    }

    /// The placement table (key → shard → home node).
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.rt.n
    }

    /// Always `false`: clusters have at least one node.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Key-addressed request: hashes `key` to a shard and makes that
    /// shard's ring acquire its token to broadcast `payload`. Returns the
    /// shard the key routed to.
    pub fn request(&self, key: u64, payload: u64) -> ShardId {
        let shard = self.map.shard_of_key(key);
        let want = DoorMsg::Want(self.map.home(shard), shard, Want::new(payload));
        let _ = self.rt.door.send(want);
        shard
    }

    /// The merged event stream of all shards on all nodes.
    pub fn events(&self) -> &Receiver<(ShardId, NodeId, TokenEvent)> {
        &self.rt.events_rx
    }

    /// Blocks until `key`'s shard reports a grant, or `timeout` elapses.
    pub fn await_grant(&self, key: u64, timeout: Duration) -> bool {
        let shard = self.map.shard_of_key(key);
        self.rt.await_event(timeout, |(s, _, ev)| {
            *s == shard && matches!(ev, TokenEvent::Granted { .. })
        })
    }

    /// Per-shard grant counters observed so far.
    pub fn grants(&self) -> Vec<u64> {
        let per_node: Vec<u64> = self.rt.grants().collect();
        per_node
            .chunks(self.rt.n)
            .map(|shard| shard.iter().sum())
            .collect()
    }

    /// Inbound frames that failed to decode (bad envelope, unknown shard
    /// id, or inner-frame garbage), summed over all nodes.
    pub fn decode_errors(&self) -> u64 {
        self.rt.shared.decode_errors.load(Ordering::Relaxed)
    }

    /// Stops the reactor and returns each node's transport teardown report
    /// (a panic of the reactor is raised again). Dropping the cluster stops
    /// and joins the same way, silently.
    pub fn shutdown(mut self) -> Vec<CloseReport> {
        self.rt.stop().unwrap_or_else(|p| resume_unwind(p))
    }
}

/// Something the reactor does later for one node. `Ord` only for
/// [`DueEntry`]'s derive: `seq` is unique, so two are never compared.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    Timer { shard: ShardId, kind: u64 },
    Send { to: NodeId, frame: Vec<u8> },
}

/// Ordered by `(at, seq, node)`; [`Reverse`]d in the heap, earliest first.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct DueEntry {
    at: Instant,
    seq: u64,
    node: usize,
    what: Due,
}

/// Events the reactor holds back at most: all go out when it is about to
/// block, and the cap keeps one that never blocks from sitting on a grant.
/// Over a backend whose hops cost system calls a grant goes out at once
/// (see [`Endpoint::hops_cost_syscalls`]).
const EVENT_BATCH: usize = 64;

/// `ticks` ticks from now, saturating: a hold above `u32::MAX` ticks is
/// that long, not its low 32 bits, and never past what `Instant` can hold.
fn due_at(tick: Duration, ticks: u64) -> Instant {
    const FOREVER: Duration = Duration::from_secs(100 * 365 * 24 * 3600);
    let ticks = u32::try_from(ticks).unwrap_or(u32::MAX);
    Instant::now() + tick.saturating_mul(ticks).min(FOREVER)
}

/// The one thread of a cluster: all N endpoints, all N×K harnesses and one
/// heap of due entries. Every per-node vector is indexed by node.
struct Reactor<P: WireProtocol, E, H: Plane> {
    config: ClusterConfig,
    start: Instant,
    endpoints: Vec<E>,
    /// One protocol instance per shard.
    harnesses: Vec<Vec<Harness<P>>>,
    /// Frames staged to the endpoint and not yet taken back.
    owed: Vec<u64>,
    /// Owed frames written off against the losses the endpoints reported.
    written_off: u64,
    heap: BinaryHeap<Reverse<DueEntry>>,
    seq: u64,
    /// The one buffer every node's events are drained through.
    drained: Vec<TokenEvent>,
    /// Events in dispatch order, not yet sent.
    events: Vec<H::Event>,
    events_tx: Sender<H::Event>,
    shared: Arc<Shared>,
}

impl<P: WireProtocol, E: Endpoint, H: Plane> Reactor<P, E, H> {
    fn now(&self) -> SimTime {
        let t = self.start.elapsed().as_nanos() / self.config.tick.as_nanos().max(1);
        SimTime::from_ticks(t as u64)
    }

    /// Runs until the door says stop (or every sender of it is gone), then
    /// closes every endpoint: one report per node.
    fn run(mut self, door: &Receiver<DoorMsg>) -> Vec<CloseReport> {
        for v in 0..self.endpoints.len() {
            let now = self.now();
            self.harnesses[v].iter_mut().for_each(|h| h.init(now));
            self.collect(v);
        }
        loop {
            // Each turn takes a request and a due entry or a frame: a token
            // that never stops moving cannot starve requests, nor a stream
            // of requests the token.
            let mut msg = match door.try_recv() {
                Ok(msg) => Some(msg),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => break,
            };
            if !(self.fire_due() || self.take_ready()) && msg.is_none() {
                // About to block: the client sees every event so far.
                self.publish();
                let until = self.heap.peek().map(|head| head.0.at);
                if let Some(v) = self.owed.iter().position(|&owed| owed > 0) {
                    self.await_owed(v, until);
                    continue;
                }
                let got = match until {
                    Some(at) => door.recv_timeout(at.saturating_duration_since(Instant::now())),
                    None => door.recv().map_err(RecvTimeoutError::from),
                };
                msg = match got {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                };
            }
            match msg {
                Some(DoorMsg::Want(node, shard, want)) => {
                    let now = self.now();
                    self.harnesses[node.index()][shard.index()].external(now, want);
                    self.collect(node.index());
                }
                Some(DoorMsg::Stop) => break,
                None => {}
            }
        }
        self.publish();
        self.endpoints.iter_mut().map(Endpoint::close).collect()
    }

    /// Fires the earliest entry if it is due.
    fn fire_due(&mut self) -> bool {
        let Some(head) = self.heap.peek_mut() else {
            return false;
        };
        if head.0.at > Instant::now() {
            return false;
        }
        let DueEntry { node, what, .. } = PeekMut::pop(head).0;
        match what {
            Due::Timer { shard, kind } => {
                let now = self.now();
                self.harnesses[node][shard.index()].fire_timer(now, kind);
                self.collect(node);
            }
            Due::Send { to, frame } => {
                self.endpoints[node].stage(to, &frame);
                self.owed[to.index()] += 1;
                self.endpoints[node].flush();
            }
        }
        true
    }

    /// Takes in one frame already queued, without waiting: from an endpoint
    /// owed one if any is, else from any (so garbage is counted too).
    fn take_ready(&mut self) -> bool {
        let owing = self.owed.iter().any(|&owed| owed > 0);
        let ready = (0..self.endpoints.len())
            .filter(|&v| !owing || self.owed[v] > 0)
            .find_map(|v| Some((v, self.endpoints[v].recv_timeout(Duration::ZERO)?)));
        let Some((v, (from, frame))) = ready else {
            return false;
        };
        self.receive(v, from, &frame);
        true
    }

    /// Waits for a frame endpoint `v` is owed until the next due entry or,
    /// with nothing due, for one tick before the door is looked at again.
    /// On a time-out, reported losses are written off against what `v` is
    /// owed: a lost frame costs one wait, a late one is still waited for.
    fn await_owed(&mut self, v: usize, until: Option<Instant>) {
        // Bytes a kernel would not take stay staged until a flush, and this
        // thread is the only one that flushes: send them before waiting.
        self.endpoints.iter_mut().for_each(Endpoint::flush);
        let wait = until.map_or(self.config.tick, |at| {
            at.saturating_duration_since(Instant::now())
        });
        if let Some((from, frame)) = self.endpoints[v].recv_timeout(wait) {
            return self.receive(v, from, &frame);
        }
        let lost = self.shared.frames_lost.load(Ordering::Relaxed);
        let gone = self.owed[v].min(lost.saturating_sub(self.written_off));
        self.owed[v] -= gone;
        self.written_off += gone;
    }

    /// Dispatches a frame endpoint `v` received. Untrusted network input: a
    /// frame that does not decode or names a shard this node does not host
    /// is counted and dropped, never panicked on, so one shard's garbage
    /// never reaches another's state.
    fn receive(&mut self, v: usize, from: NodeId, frame: &[u8]) {
        self.owed[v] = self.owed[v].saturating_sub(1);
        let now = self.now();
        let harnesses = &mut self.harnesses[v];
        let handled = H::unwrap(frame).and_then(|(shard, inner)| {
            let msg = P::decode_msg(inner).ok()?;
            harnesses
                .get_mut(shard.index())
                .map(|h| h.deliver(now, from, msg))
        });
        if handled.is_none() {
            self.shared.decode_errors.fetch_add(1, Ordering::Relaxed);
        }
        self.collect(v);
    }

    /// Takes the effects of node `v`'s last dispatch: events into the
    /// buffer, frames onto the wire or the heap, timers onto the heap. The
    /// buffer keeps dispatch order, so a `Released` always goes out before
    /// the `Granted` its token frame causes.
    fn collect(&mut self, v: usize) {
        let n = self.endpoints.len();
        let tick = self.config.tick;
        let mut schedule = |ticks: u64, what: Due| {
            self.seq += 1;
            self.heap.push(Reverse(DueEntry {
                at: due_at(tick, ticks),
                seq: self.seq,
                node: v,
                what,
            }));
        };
        let (mut staged, mut granted) = (false, false);
        for (s, harness) in self.harnesses[v].iter_mut().enumerate() {
            let shard = ShardId(s as u16);
            harness.node_mut().take_events_into(&mut self.drained);
            for ev in self.drained.drain(..) {
                if matches!(ev, TokenEvent::Granted { .. }) {
                    self.shared.grants[s * n + v].fetch_add(1, Ordering::Relaxed);
                    granted = true;
                }
                self.events.push(H::event(shard, NodeId::new(v as u32), ev));
            }
            for ob in harness.take_outbound() {
                let frame = H::wrap(shard, P::encode_msg(&ob.msg));
                if ob.hold == 0 {
                    self.endpoints[v].stage(ob.to, &frame);
                    self.owed[ob.to.index()] += 1;
                    staged = true;
                } else {
                    schedule(ob.hold, Due::Send { to: ob.to, frame });
                }
            }
            for TimerRequest { delay, kind } in harness.take_timers() {
                schedule(delay, Due::Timer { shard, kind });
            }
        }
        if staged {
            self.endpoints[v].flush();
        }
        if self.events.len() >= EVENT_BATCH || (granted && self.endpoints[v].hops_cost_syscalls()) {
            self.publish();
        }
    }

    /// Sends the buffered events to the client, in dispatch order, and
    /// counts the frames the endpoints lost so far.
    fn publish(&mut self) {
        for ev in self.events.drain(..) {
            let _ = self.events_tx.send(ev);
        }
        let lost = self.endpoints.iter().map(Endpoint::frames_lost).sum();
        self.shared.frames_lost.store(lost, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_net::ChanEndpoint;
    use std::sync::Mutex;

    use crate::naimi::NaimiNode;
    use crate::ring::RingNode;
    use crate::search::SearchNode;

    #[test]
    fn cluster_grants_a_request() {
        let cluster: Cluster =
            Cluster::start(ClusterConfig::new(3).with_tick(Duration::from_micros(200)));
        cluster.request(NodeId::new(1), 7);
        assert!(cluster.await_grant(NodeId::new(1), Duration::from_secs(10)));
        assert_eq!(cluster.decode_errors(), 0);
        cluster.shutdown();
    }

    #[test]
    fn cluster_serves_concurrent_requesters() {
        let cluster: Cluster =
            Cluster::start(ClusterConfig::new(4).with_tick(Duration::from_micros(200)));
        for i in 0..4 {
            cluster.request(NodeId::new(i), i as u64);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut granted = [false; 4];
        while granted.iter().any(|g| !g) && Instant::now() < deadline {
            if let Ok((who, TokenEvent::Granted { .. })) =
                cluster.events().recv_timeout(Duration::from_millis(500))
            {
                granted[who.index()] = true;
            }
        }
        assert_eq!(granted, [true; 4]);
        let grants = cluster.grants();
        assert_eq!(grants.iter().sum::<u64>(), 4);
        cluster.shutdown();
    }

    #[test]
    fn handles_are_cloneable_and_attributed() {
        let cluster: Cluster =
            Cluster::start(ClusterConfig::new(2).with_tick(Duration::from_micros(200)));
        let h = cluster.handle(NodeId::new(1));
        let h2 = h.clone();
        assert_eq!(h2.node(), NodeId::new(1));
        h2.want(5);
        assert!(cluster.await_grant(NodeId::new(1), Duration::from_secs(10)));
        cluster.shutdown();
    }

    #[test]
    fn every_protocol_deploys_on_channels() {
        fn serve_one<P: WireProtocol>() {
            let cluster: Cluster<P> =
                Cluster::start(ClusterConfig::new(3).with_tick(Duration::from_micros(200)));
            cluster.request(NodeId::new(2), 1);
            assert!(
                cluster.await_grant(NodeId::new(2), Duration::from_secs(15)),
                "{} never granted",
                P::LABEL
            );
            for report in cluster.shutdown() {
                assert!(report.is_clean());
            }
        }
        serve_one::<RingNode>();
        serve_one::<SearchNode>();
        serve_one::<BinaryNode>();
        serve_one::<NaimiNode>();
    }

    /// A transport that delivers byte soup alongside real traffic: node 0's
    /// endpoint yields a stream of undecodable frames before every real
    /// receive. The cluster must count them and keep serving — the
    /// network-facing decode path never panics on garbage.
    struct GarbageChanTransport;

    struct GarbageEndpoint {
        inner: ChanEndpoint,
        garbage_left: u32,
    }

    impl Endpoint for GarbageEndpoint {
        fn id(&self) -> NodeId {
            self.inner.id()
        }
        fn stage(&mut self, to: NodeId, frame: &[u8]) {
            self.inner.stage(to, frame);
        }
        fn flush(&mut self) {
            self.inner.flush();
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
            if self.garbage_left > 0 {
                self.garbage_left -= 1;
                // 0xff is no protocol's tag; a valid sender id keeps the
                // blame on the payload.
                return Some((NodeId::new(1), vec![0xff, 0xee, 0xdd]));
            }
            self.inner.recv_timeout(timeout)
        }
        fn frames_lost(&self) -> u64 {
            self.inner.frames_lost()
        }
        fn hops_cost_syscalls(&self) -> bool {
            self.inner.hops_cost_syscalls()
        }
        fn close(&mut self) -> CloseReport {
            self.inner.close()
        }
    }

    impl Transport for GarbageChanTransport {
        type Endpoint = GarbageEndpoint;
        fn label() -> &'static str {
            "chan+garbage"
        }
        fn endpoints(n: usize) -> std::io::Result<Vec<GarbageEndpoint>> {
            Ok(ChanTransport::endpoints(n)?
                .into_iter()
                .enumerate()
                .map(|(i, inner)| GarbageEndpoint {
                    inner,
                    garbage_left: if i == 0 { 10 } else { 0 },
                })
                .collect())
        }
    }

    #[test]
    fn garbage_frames_are_counted_and_service_continues() {
        let cluster: Cluster = Cluster::start_on::<GarbageChanTransport>(
            ClusterConfig::new(3).with_tick(Duration::from_micros(200)),
        )
        .expect("channel transport is infallible");
        cluster.request(NodeId::new(2), 42);
        assert!(
            cluster.await_grant(NodeId::new(2), Duration::from_secs(15)),
            "garbage frames must not stall the cluster"
        );
        assert_eq!(cluster.decode_errors(), 10, "every garbage frame counted");
        cluster.shutdown();
    }

    #[test]
    fn sharded_cluster_serves_keys_across_shards() {
        let cluster: ShardedCluster = ShardedCluster::start(
            ShardedClusterConfig::new(3, 4).with_tick(Duration::from_micros(200)),
        );
        // Enough distinct keys to hit more than one shard.
        let keys: Vec<u64> = (0..6).map(|i| 0x1000 + 7 * i).collect();
        let mut shards_hit = std::collections::BTreeSet::new();
        for &key in &keys {
            shards_hit.insert(cluster.request(key, key));
        }
        assert!(shards_hit.len() > 1, "keys all hashed to one shard");
        // await_grant discards other shards' events, so tally the merged
        // stream directly: every request must produce a grant.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut granted = 0usize;
        while granted < keys.len() && Instant::now() < deadline {
            if let Ok((_, _, TokenEvent::Granted { .. })) =
                cluster.events().recv_timeout(Duration::from_millis(500))
            {
                granted += 1;
            }
        }
        assert_eq!(granted, keys.len(), "not every key was granted");
        assert_eq!(cluster.decode_errors(), 0);
        let grants = cluster.grants();
        assert_eq!(grants.len(), 4, "one counter per shard");
        assert_eq!(grants.iter().sum::<u64>(), keys.len() as u64);
        for report in cluster.shutdown() {
            assert!(report.is_clean());
        }
    }

    #[test]
    fn sharded_cluster_runs_over_tcp_loopback() {
        let cluster: ShardedCluster<NaimiNode> = ShardedCluster::start_on::<atp_net::TcpTransport>(
            ShardedClusterConfig::new(3, 2).with_tick(Duration::from_micros(500)),
        )
        .expect("bind loopback");
        cluster.request(99, 1);
        assert!(cluster.await_grant(99, Duration::from_secs(20)));
        assert_eq!(cluster.decode_errors(), 0);
        for report in cluster.shutdown() {
            assert!(report.is_clean(), "leaked threads: {report:?}");
        }
    }

    #[test]
    fn cluster_runs_over_tcp_loopback() {
        let cluster: Cluster<BinaryNode> = Cluster::start_on::<atp_net::TcpTransport>(
            ClusterConfig::new(3).with_tick(Duration::from_micros(500)),
        )
        .expect("bind loopback");
        cluster.request(NodeId::new(1), 7);
        assert!(cluster.await_grant(NodeId::new(1), Duration::from_secs(20)));
        assert_eq!(cluster.decode_errors(), 0);
        for report in cluster.shutdown() {
            assert!(report.is_clean(), "leaked threads: {report:?}");
        }
    }

    /// What a [`ProbeTransport`] saw, per test: tests run in parallel, so
    /// each brings its own static through [`Script::tally`].
    struct Tally {
        /// Blocking `recv_timeout` calls (a non-zero wait) that returned
        /// `None`; zero-wait looks are not waits.
        timeouts: AtomicU64,
        /// `stage`, `flush` and `recv_timeout` calls.
        calls: AtomicU64,
        /// `close` calls.
        closed: AtomicU64,
        /// Every thread that staged, flushed or received, once each.
        threads: Mutex<Vec<std::thread::ThreadId>>,
    }

    impl Tally {
        const fn new() -> Self {
            Tally {
                timeouts: AtomicU64::new(0),
                calls: AtomicU64::new(0),
                closed: AtomicU64::new(0),
                threads: Mutex::new(Vec::new()),
            }
        }

        fn saw(&self) {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let me = std::thread::current().id();
            let mut threads = self.threads.lock().expect("no probe panics holding it");
            if !threads.contains(&me) {
                threads.push(me);
            }
        }

        /// The threads seen since the last call.
        fn take_threads(&self) -> Vec<std::thread::ThreadId> {
            std::mem::take(&mut self.threads.lock().expect("no probe panics holding it"))
        }
    }

    trait Script: 'static {
        fn tally() -> &'static Tally;
        /// Frames endpoint `node` of an `n`-node cluster receives before
        /// any real traffic.
        fn prelude(_node: usize, _n: usize) -> Vec<(NodeId, Vec<u8>)> {
            Vec::new()
        }
        /// Whether the transport loses the `nth` frame an endpoint stages
        /// (counting from 0) instead of carrying it; a lost frame is
        /// reported in `frames_lost`.
        fn loses(_nth: u64) -> bool {
            false
        }
    }

    /// `T` with every endpoint counting what the reactor does with it.
    struct ProbeTransport<T, S>(std::marker::PhantomData<fn() -> (T, S)>);

    struct ProbeEndpoint<E, S> {
        inner: E,
        prelude: std::collections::VecDeque<(NodeId, Vec<u8>)>,
        staged: u64,
        lost: u64,
        _script: std::marker::PhantomData<fn() -> S>,
    }

    impl<E: Endpoint, S: Script> Endpoint for ProbeEndpoint<E, S> {
        fn id(&self) -> NodeId {
            self.inner.id()
        }
        fn stage(&mut self, to: NodeId, frame: &[u8]) {
            S::tally().saw();
            self.staged += 1;
            if S::loses(self.staged - 1) {
                self.lost += 1;
            } else {
                self.inner.stage(to, frame);
            }
        }
        fn flush(&mut self) {
            S::tally().saw();
            self.inner.flush();
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
            S::tally().saw();
            if let Some(scripted) = self.prelude.pop_front() {
                return Some(scripted);
            }
            let got = self.inner.recv_timeout(timeout);
            if got.is_none() && !timeout.is_zero() {
                S::tally().timeouts.fetch_add(1, Ordering::SeqCst);
            }
            got
        }
        fn frames_lost(&self) -> u64 {
            self.inner.frames_lost() + self.lost
        }
        fn hops_cost_syscalls(&self) -> bool {
            self.inner.hops_cost_syscalls()
        }
        fn close(&mut self) -> CloseReport {
            S::tally().closed.fetch_add(1, Ordering::SeqCst);
            self.inner.close()
        }
    }

    impl<T: Transport, S: Script> Transport for ProbeTransport<T, S> {
        type Endpoint = ProbeEndpoint<T::Endpoint, S>;
        fn label() -> &'static str {
            "probe"
        }
        fn endpoints(n: usize) -> std::io::Result<Vec<Self::Endpoint>> {
            Ok(T::endpoints(n)?
                .into_iter()
                .enumerate()
                .map(|(i, inner)| ProbeEndpoint {
                    inner,
                    prelude: S::prelude(i, n).into(),
                    staged: 0,
                    lost: 0,
                    _script: std::marker::PhantomData,
                })
                .collect())
        }
    }

    fn fast(n: usize) -> ClusterConfig {
        ClusterConfig::new(n).with_tick(Duration::from_micros(200))
    }

    /// Spins (test code only) until the reactor has touched no endpoint for
    /// 50 ms: it is blocked on the door.
    fn wait_until_quiet<S: Script>() {
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut seen = S::tally().calls.load(Ordering::SeqCst);
        let mut since = Instant::now();
        while since.elapsed() < Duration::from_millis(50) {
            assert!(Instant::now() < deadline, "the cluster never went quiet");
            std::thread::sleep(Duration::from_millis(1));
            let now = S::tally().calls.load(Ordering::SeqCst);
            if now != seen {
                (seen, since) = (now, Instant::now());
            }
        }
    }

    #[test]
    fn an_idle_cluster_is_woken_by_arrival_not_by_a_poll() {
        struct S;
        impl Script for S {
            fn tally() -> &'static Tally {
                static T: Tally = Tally::new();
                &T
            }
        }
        let cluster: Cluster<SearchNode> =
            Cluster::start_on::<ProbeTransport<ChanTransport, S>>(fast(4)).expect("infallible");
        for k in 0..200u32 {
            let node = NodeId::new(k % 4);
            cluster.request(node, u64::from(k));
            assert!(
                cluster.await_grant(node, Duration::from_secs(10)),
                "request {k}"
            );
        }
        assert_eq!(cluster.grants().iter().sum::<u64>(), 200);
        let timeouts = S::tally().timeouts.load(Ordering::SeqCst);
        assert!(
            timeouts <= 8,
            "{timeouts} blocking receives timed out for 200 idle grants"
        );
        cluster.shutdown();
    }

    #[test]
    fn wants_reach_a_node_in_the_order_they_were_sent() {
        let cluster: Cluster = Cluster::start(fast(3));
        let target = NodeId::new(1);
        let handles = [cluster.handle(target), cluster.handle(target).clone()];
        for payload in 0..50u64 {
            handles[payload as usize % 2].want(payload);
        }
        // `Requested` numbers the wants as the node took them and the node
        // serves its own queue in that order, so its broadcasts, as it
        // commits them, name the payloads in intake order.
        let (mut requested, mut broadcast) = (Vec::new(), Vec::new());
        let deadline = Instant::now() + Duration::from_secs(30);
        while broadcast.len() < 50 && Instant::now() < deadline {
            match cluster.events().recv_timeout(Duration::from_millis(500)) {
                Ok((who, TokenEvent::Requested { req, .. })) if who == target => {
                    requested.push(req.seq)
                }
                Ok((who, TokenEvent::Released { payload, .. })) if who == target => {
                    broadcast.push(payload)
                }
                _ => {}
            }
        }
        assert_eq!(requested, (1..=50).collect::<Vec<u64>>());
        assert_eq!(broadcast, (0..50).collect::<Vec<u64>>());
        cluster.shutdown();
    }

    /// The history is reported once per entry, by the node that commits it:
    /// no node emits `Delivered` — asking for logs changes nothing — and the
    /// `Released` events alone name every position of `H` exactly once,
    /// each with the payload its origin was asked to broadcast.
    #[test]
    fn the_order_is_reported_once_per_entry_and_no_node_keeps_a_copy() {
        const REQUESTS: u64 = 120;
        let keeping_logs = ProtocolConfig::default()
            .with_adaptive_speed(true)
            .with_max_idle_pass_ticks(64)
            .with_record_log(true);
        let cluster: Cluster = Cluster::start(fast(4).with_protocol(keeping_logs));
        let mut committed = Vec::new();
        for k in 0..REQUESTS {
            let node = NodeId::new((k % 4) as u32);
            cluster.request(node, 1000 + k);
            loop {
                let (who, ev) = cluster
                    .events()
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("request {k} stalled"));
                match ev {
                    TokenEvent::Delivered { .. } => panic!("{who} kept a copy of the history"),
                    TokenEvent::Released {
                        req, seq, payload, ..
                    } => {
                        assert_eq!(req.origin, who);
                        committed.push((seq, who, payload));
                        if payload == 1000 + k {
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        committed.sort_unstable();
        let want: Vec<(u64, NodeId, u64)> = (0..REQUESTS)
            .map(|k| (k + 1, NodeId::new((k % 4) as u32), 1000 + k))
            .collect();
        assert_eq!(
            committed, want,
            "one request at a time: H is the issue order"
        );
        cluster.shutdown();

        // The sharded plane: one gap-free history per shard.
        let sharded: ShardedCluster = ShardedCluster::start(
            ShardedClusterConfig::new(3, 4)
                .with_tick(Duration::from_micros(200))
                .with_protocol(keeping_logs),
        );
        let keys: Vec<u64> = (0..40).map(|i| 0x2000 + 13 * i).collect();
        let mut per_shard = vec![Vec::new(); 4];
        for &key in &keys {
            sharded.request(key, key);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while per_shard.iter().map(Vec::len).sum::<usize>() < keys.len() {
            assert!(Instant::now() < deadline, "not every key was served");
            match sharded.events().recv_timeout(Duration::from_millis(500)) {
                Ok((_, who, TokenEvent::Delivered { .. })) => {
                    panic!("{who} kept a copy of the history")
                }
                Ok((shard, _, TokenEvent::Released { seq, .. })) => {
                    per_shard[shard.index()].push(seq)
                }
                _ => {}
            }
        }
        for seqs in &mut per_shard {
            seqs.sort_unstable();
            assert_eq!(*seqs, (1..=seqs.len() as u64).collect::<Vec<u64>>());
        }
        sharded.shutdown();
    }

    #[test]
    fn shutdown_and_drop_wake_blocked_nodes_through_the_door() {
        struct S;
        impl Script for S {
            fn tally() -> &'static Tally {
                static T: Tally = Tally::new();
                &T
            }
        }
        fn stops<T: Transport>(by_drop: bool) {
            let closed_before = S::tally().closed.load(Ordering::SeqCst);
            let cluster: Cluster<SearchNode> =
                Cluster::start_on::<ProbeTransport<T, S>>(fast(3)).expect("bind loopback");
            cluster.request(NodeId::new(2), 1);
            assert!(cluster.await_grant(NodeId::new(2), Duration::from_secs(20)));
            // Search parks its token: with nothing due, the reactor blocks
            // on the door without a time-out, so only the stop can wake it.
            wait_until_quiet::<S>();
            let begun = Instant::now();
            if by_drop {
                drop(cluster);
            } else {
                let reports = cluster.shutdown();
                assert_eq!(reports.len(), 3, "one report per node");
                assert!(reports.iter().all(CloseReport::is_clean), "{reports:?}");
            }
            let took = begun.elapsed();
            assert!(took < Duration::from_secs(1), "{}: {took:?}", T::label());
            let closed = S::tally().closed.load(Ordering::SeqCst) - closed_before;
            assert_eq!(closed, 3, "the reactor closed every endpoint");
        }
        stops::<ChanTransport>(false);
        stops::<ChanTransport>(true);
        stops::<atp_net::TcpTransport>(false);
        stops::<atp_net::TcpTransport>(true);
    }

    #[test]
    fn only_the_door_may_speak_the_control_encoding() {
        /// The scripted node: where `KEY` lives on the sharded plane, so
        /// both clusters below can be asked to serve there. Its grant
        /// proves it has been through the whole script.
        const KEY: u64 = 0xfeed;
        fn target(n: usize) -> NodeId {
            NodeId::new(ShardMap::new(2, n).owner_of_key(KEY))
        }
        struct S;
        impl Script for S {
            fn tally() -> &'static Tally {
                static T: Tally = Tally::new();
                &T
            }
            fn prelude(node: usize, n: usize) -> Vec<(NodeId, Vec<u8>)> {
                if node != target(n).index() {
                    return Vec::new();
                }
                // The bytes the door once spoke on the wire (0x60 want:
                // kind, shard, payload; 0x61 stop), now from ring members:
                // requests never come as frames, so each is one more
                // undecodable frame.
                let want = [&[0x60, 0][..], &0u16.to_le_bytes(), &77u64.to_le_bytes()].concat();
                let mut bad_kind = want.clone();
                bad_kind[1] = 9;
                let mut far_shard = want.clone();
                far_shard[2] = 9;
                let truncated = want[..want.len() - 1].to_vec();
                [vec![0x61], want, Vec::new(), truncated, bad_kind, far_shard]
                    .into_iter()
                    .map(|frame| (NodeId::new(1), frame))
                    .collect()
            }
        }
        fn serves_once(events: impl Fn() -> Option<TokenEvent>) {
            let (mut requested, mut granted) = (0, 0);
            let deadline = Instant::now() + Duration::from_secs(20);
            while granted == 0 && Instant::now() < deadline {
                match events() {
                    Some(TokenEvent::Requested { .. }) => requested += 1,
                    Some(TokenEvent::Granted { .. }) => granted += 1,
                    _ => {}
                }
            }
            assert_eq!((requested, granted), (1, 1), "only the door's own want ran");
        }

        let cluster: Cluster =
            Cluster::start_on::<ProbeTransport<ChanTransport, S>>(fast(3)).expect("infallible");
        cluster.request(target(3), 5);
        serves_once(|| {
            Some(
                cluster
                    .events()
                    .recv_timeout(Duration::from_millis(500))
                    .ok()?
                    .1,
            )
        });
        assert_eq!(
            cluster.decode_errors(),
            6,
            "every scripted frame counted, none executed"
        );
        assert_eq!(cluster.grants().iter().sum::<u64>(), 1);
        assert!(cluster.shutdown().iter().all(CloseReport::is_clean));

        // The sharded plane runs the same reactor: the envelope decoder
        // rejects the control tags as the protocol decoders do.
        let sharded: ShardedCluster = ShardedCluster::start_on::<ProbeTransport<ChanTransport, S>>(
            ShardedClusterConfig::new(3, 2).with_tick(Duration::from_micros(200)),
        )
        .expect("infallible");
        sharded.request(KEY, 5);
        serves_once(|| {
            Some(
                sharded
                    .events()
                    .recv_timeout(Duration::from_millis(500))
                    .ok()?
                    .2,
            )
        });
        assert_eq!(sharded.decode_errors(), 6);
        assert_eq!(sharded.grants().iter().sum::<u64>(), 1);
        assert!(sharded.shutdown().iter().all(CloseReport::is_clean));
    }

    #[test]
    fn every_node_runs_on_one_thread() {
        struct S;
        impl Script for S {
            fn tally() -> &'static Tally {
                static T: Tally = Tally::new();
                &T
            }
        }
        type Probe = ProbeTransport<ChanTransport, S>;
        let cluster: Cluster = Cluster::start_on::<Probe>(fast(8)).expect("infallible");
        for k in 0..16u32 {
            let node = NodeId::new(k % 8);
            cluster.request(node, u64::from(k));
            assert!(
                cluster.await_grant(node, Duration::from_secs(10)),
                "request {k}"
            );
        }
        assert_eq!(cluster.shutdown().len(), 8);
        let threads = S::tally().take_threads();
        assert_eq!(threads.len(), 1, "Cluster: {threads:?}");
        assert_ne!(threads[0], std::thread::current().id());

        let sharded: ShardedCluster = ShardedCluster::start_on::<Probe>(
            ShardedClusterConfig::new(8, 4).with_tick(Duration::from_micros(200)),
        )
        .expect("infallible");
        for key in 0..16u64 {
            sharded.request(key, key);
            assert!(
                sharded.await_grant(key, Duration::from_secs(10)),
                "key {key}"
            );
        }
        assert_eq!(sharded.shutdown().len(), 8);
        let threads = S::tally().take_threads();
        assert_eq!(threads.len(), 1, "ShardedCluster: {threads:?}");
        assert_ne!(threads[0], std::thread::current().id());
    }

    #[test]
    fn frames_lost_is_counted_while_the_cluster_runs() {
        struct S;
        impl Script for S {
            fn tally() -> &'static Tally {
                static T: Tally = Tally::new();
                &T
            }
            fn loses(nth: u64) -> bool {
                nth % 5 == 4
            }
        }
        // Token frames are lost too, so the token is acknowledged and
        // resent; the reactor is owed every lost frame and never gets it.
        let protocol = fast(4).protocol.with_token_acks(true);
        let cluster: Cluster =
            Cluster::start_on::<ProbeTransport<ChanTransport, S>>(fast(4).with_protocol(protocol))
                .expect("infallible");
        for k in 0..40u32 {
            let node = NodeId::new(k % 4);
            cluster.request(node, u64::from(k));
            assert!(
                cluster.await_grant(node, Duration::from_secs(20)),
                "request {k}"
            );
        }
        assert!(cluster.frames_lost() > 0, "losses counted before shutdown");
        assert!(
            S::tally().timeouts.load(Ordering::SeqCst) > 0,
            "the reactor waited for a frame that never came"
        );
        let begun = Instant::now();
        let reports = cluster.shutdown();
        let took = begun.elapsed();
        assert!(took < Duration::from_secs(1), "{took:?}");
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(CloseReport::is_clean), "{reports:?}");
    }

    #[test]
    fn a_client_that_panics_holding_a_handle_leaves_the_door_working() {
        let cluster: Cluster = Cluster::start(fast(3));
        let handle = cluster.handle(NodeId::new(2));
        let client = std::thread::spawn(move || {
            handle.want(1);
            panic!("client dies holding a handle (expected by this test)");
        });
        assert!(client.join().is_err());
        assert!(cluster.await_grant(NodeId::new(2), Duration::from_secs(10)));
        cluster.request(NodeId::new(1), 3);
        assert!(cluster.await_grant(NodeId::new(1), Duration::from_secs(10)));
        let reports = cluster.shutdown();
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(CloseReport::is_clean));
    }

    #[test]
    fn a_handle_that_outlives_its_cluster_sends_nowhere() {
        let cluster: Cluster = Cluster::start(fast(2));
        let handle = cluster.handle(NodeId::new(1));
        drop(cluster);
        handle.want(1);
    }

    #[test]
    fn long_holds_saturate_instead_of_wrapping() {
        let tick = Duration::from_millis(1);
        let wrapped_to_four_ticks = u64::from(u32::MAX) + 5;
        assert!(due_at(tick, wrapped_to_four_ticks) > Instant::now() + tick * (u32::MAX - 1));
        let _ = due_at(Duration::MAX, u64::MAX);
    }
}
