//! A real multi-threaded deployment of the token-passing protocols.
//!
//! Each node runs on its own OS thread, hosted by [`atp_net::Harness`];
//! messages travel as **encoded byte frames** (see [`crate::codec`]) over a
//! pluggable byte [`Transport`] — in-process mpsc channels by default
//! ([`Cluster::start`]), or real loopback TCP sockets
//! ([`Cluster::start_on`] with [`atp_net::TcpTransport`]). The exact
//! on-the-wire protocol is exercised either way. Ticks are mapped to
//! wall-clock time through [`ClusterConfig::tick`].
//!
//! The cluster is generic over `P:` [`WireProtocol`], defaulting to System
//! BinarySearch; any of the four protocol families deploys unchanged.
//!
//! A node thread blocks on **one inbox**, its transport endpoint, until a
//! frame arrives or its earliest timer is due. Requests and shutdown reach
//! it through that same inbox: the cluster keeps one extra endpoint of the
//! mesh, the *front door* (id `n`), and [`Cluster::request`] is a small
//! control frame sent from it. A node wakes on arrival, never on a poll.
//! [`Cluster`] and [`ShardedCluster`] run the same node loop; they differ
//! only in the `Plane` they host.
//!
//! A node keeps its place in the global history as counters only (applied
//! length and digest), never a copy of the entries: the node that commits
//! an entry reports it once, in its [`TokenEvent::Released`] event, and no
//! node emits [`TokenEvent::Delivered`].
//!
//! Inbound frames are **untrusted network input**: frames that fail to
//! decode are counted ([`Cluster::decode_errors`]) and dropped, never
//! panicked on — a peer speaking garbage cannot take a node down. Only the
//! door may speak the control encoding: the same bytes from a ring member
//! are one more undecodable frame.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use atp_net::{
    ChanTransport, CloseReport, Endpoint, Harness, MsgClass, NodeId, SimTime, Topology, Transport,
};
use atp_util::rng::{Rng, SeedableRng, StdRng};

use crate::binary::BinaryNode;
use crate::codec::{decode_shard_frame, encode_shard_frame};
use crate::config::ProtocolConfig;
use crate::event::{TokenEvent, Want, WantKind};
use crate::shard::{ShardId, ShardMap};
use crate::wire::WireProtocol;

/// Configuration for a threaded [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (threads).
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
    /// Probability of dropping each cheap (control-class) frame before it
    /// leaves the sender — models an unreliable datagram path for the
    /// paper's "cheap" messages while token frames stay reliable.
    pub control_drop_p: f64,
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
            control_drop_p: 0.0,
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

    /// Sets the cheap-channel loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_control_drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.control_drop_p = p;
        self
    }
}

/// What the front door says to a node: what a real deployment would get
/// from its local host, encoded as a frame so that it arrives — and wakes
/// the node — like any other. The tags sit outside every protocol's and
/// the shard envelope's tag space, so a ring member that sends these bytes
/// fails the data decoders and is counted, never executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DoorMsg {
    /// An external stimulus for one protocol instance (shard 0 on the
    /// single-token plane).
    Want(ShardId, Want),
    /// Leave the node loop and close the endpoint.
    Stop,
}

const TAG_DOOR_WANT: u8 = 0x60;
const TAG_DOOR_STOP: u8 = 0x61;

impl DoorMsg {
    fn encode(self) -> Vec<u8> {
        match self {
            DoorMsg::Stop => vec![TAG_DOOR_STOP],
            DoorMsg::Want(shard, want) => {
                let kind = match want.kind {
                    WantKind::Acquire => 0,
                    WantKind::Leave => 1,
                    WantKind::Rejoin => 2,
                };
                let mut buf = vec![TAG_DOOR_WANT, kind];
                buf.extend_from_slice(&shard.0.to_le_bytes());
                buf.extend_from_slice(&want.payload.to_le_bytes());
                buf
            }
        }
    }

    /// `None` for anything `encode` does not produce, byte for byte.
    fn decode(bytes: &[u8]) -> Option<DoorMsg> {
        match *bytes {
            [TAG_DOOR_STOP] => Some(DoorMsg::Stop),
            [TAG_DOOR_WANT, kind, s0, s1, ref payload @ ..] => {
                let kind = match kind {
                    0 => WantKind::Acquire,
                    1 => WantKind::Leave,
                    2 => WantKind::Rejoin,
                    _ => return None,
                };
                let payload = u64::from_le_bytes(payload.try_into().ok()?);
                let shard = ShardId(u16::from_le_bytes([s0, s1]));
                Some(DoorMsg::Want(shard, Want { payload, kind }))
            }
            _ => None,
        }
    }
}

/// The cluster's front door: endpoint `n` of the mesh, shared by the
/// cluster and every handle. `None` once closed, so a handle that outlives
/// its cluster sends nowhere.
struct Door(Mutex<Option<Box<dyn Endpoint>>>);

impl Door {
    /// A client that panicked mid-send poisons the mutex but leaves the
    /// endpoint valid (at worst its own frame stays staged), and `Drop`
    /// must still get through to stop the nodes.
    fn lock(&self) -> MutexGuard<'_, Option<Box<dyn Endpoint>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn send(&self, to: impl IntoIterator<Item = NodeId>, msg: DoorMsg) {
        if let Some(endpoint) = self.lock().as_mut() {
            let frame = msg.encode();
            to.into_iter().for_each(|node| endpoint.stage(node, &frame));
            endpoint.flush();
        }
    }

    fn close(&self) -> Option<CloseReport> {
        self.lock().take().map(|mut endpoint| endpoint.close())
    }
}

impl std::fmt::Debug for Door {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Door")
    }
}

/// What differs between the single-token and the sharded plane. Everything
/// else about hosting protocol instances on a thread is [`node_main`].
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

/// Counters the node threads add to and the cluster reads.
struct Shared {
    /// Grants per (shard, node), shard-major.
    grants: Box<[AtomicU64]>,
    decode_errors: AtomicU64,
    frames_lost: AtomicU64,
    /// Set (`Release`) before the stop frames go out and read (`Acquire`)
    /// in the time-out arm of [`node_main`]; it publishes nothing else.
    stopping: AtomicBool,
}

/// The threads, door and event stream behind a [`Cluster`] or a
/// [`ShardedCluster`].
struct Runtime<Ev> {
    n: usize,
    door: Arc<Door>,
    events_rx: Receiver<Ev>,
    threads: Vec<JoinHandle<CloseReport>>,
    shared: Arc<Shared>,
}

impl<Ev> Runtime<Ev> {
    /// Starts `config.n` node threads, each hosting one instance of `P` per
    /// element of `shards` (`config.protocol` itself is not looked at).
    fn start_on<P: WireProtocol, T: Transport, H: Plane<Event = Ev>>(
        config: ClusterConfig,
        shards: Vec<ProtocolConfig>,
    ) -> std::io::Result<Self>
    where
        Ev: Send + 'static,
    {
        let n = config.n;
        assert!(n > 0, "cluster needs at least one node");
        let mut endpoints = T::endpoints(n + 1)?.into_iter();
        let (events_tx, events_rx) = channel();
        let shared = Arc::new(Shared {
            grants: (0..n * shards.len()).map(|_| AtomicU64::new(0)).collect(),
            decode_errors: AtomicU64::new(0),
            frames_lost: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
        });
        let threads = endpoints
            .by_ref()
            .take(n)
            .map(|endpoint| {
                let (config, shards) = (config.clone(), shards.clone());
                let (events_tx, shared) = (events_tx.clone(), Arc::clone(&shared));
                std::thread::spawn(move || {
                    node_main::<P, _, H>(&config, shards, endpoint, events_tx, &shared)
                })
            })
            .collect();
        let door = endpoints.next().map(|e| Box::new(e) as Box<dyn Endpoint>);
        Ok(Runtime {
            n,
            door: Arc::new(Door(Mutex::new(door))),
            events_rx,
            threads,
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

    /// Stops and joins every node thread, then closes the door: one
    /// report per node, the door's last. Idempotent.
    fn stop(&mut self) -> Vec<CloseReport> {
        self.shared.stopping.store(true, Ordering::Release);
        self.door
            .send((0..self.n as u32).map(NodeId::new), DoorMsg::Stop);
        let mut reports: Vec<CloseReport> = self
            .threads
            .drain(..)
            .map(|t| t.join().unwrap_or_default())
            .collect();
        reports.extend(self.door.close());
        reports
    }
}

impl<Ev> Drop for Runtime<Ev> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A handle for injecting requests into one node of a running [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterHandle {
    node: NodeId,
    door: Arc<Door>,
}

impl ClusterHandle {
    /// The node this handle addresses.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Makes the node ready: it will acquire the token and broadcast
    /// `payload`. Watch the cluster's event stream for the grant. Wants
    /// sent to one node reach it in the order they were sent, whichever
    /// handles sent them.
    pub fn want(&self, payload: u64) {
        self.door
            .send([self.node], DoorMsg::Want(ShardId(0), Want::new(payload)));
    }
}

/// A running multi-threaded token-passing cluster.
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
    /// Starts `config.n` node threads over in-process channels and mints
    /// the token at node 0.
    ///
    /// # Panics
    ///
    /// Panics if `config.n == 0`.
    pub fn start(config: ClusterConfig) -> Self {
        Cluster::start_on::<ChanTransport>(config).expect("channel transport is infallible")
    }

    /// Starts the cluster on an arbitrary byte transport (e.g.
    /// [`atp_net::TcpTransport`] for real loopback sockets). The mesh is
    /// built with `config.n + 1` endpoints; the last is the front door.
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
            door: Arc::clone(&self.rt.door),
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
    /// summed over all nodes.
    pub fn frames_lost(&self) -> u64 {
        self.rt.shared.frames_lost.load(Ordering::Relaxed)
    }

    /// Stops every node thread, waits for them to exit, and returns each
    /// node's transport teardown report followed by the front door's
    /// (assert [`CloseReport::is_clean`] to prove no thread leaked).
    /// Dropping the cluster stops and joins the same way.
    pub fn shutdown(mut self) -> Vec<CloseReport> {
        self.rt.stop()
    }
}

/// Configuration for a [`ShardedCluster`].
#[derive(Debug, Clone)]
pub struct ShardedClusterConfig {
    /// Number of nodes (threads).
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
/// [`crate::encode_shard_frame`] envelope; each node thread demuxes by
/// shard id into one [`Harness`] per shard, so a frame from shard *i*
/// can never perturb shard *j*.
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
    /// Starts `config.n` node threads over in-process channels, each
    /// hosting `config.shards` protocol instances.
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
        self.rt.door.send(
            [self.map.home(shard)],
            DoorMsg::Want(shard, Want::new(payload)),
        );
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

    /// Stops every node thread and returns each node's transport
    /// teardown report followed by the front door's. Dropping the cluster
    /// stops and joins the same way.
    pub fn shutdown(mut self) -> Vec<CloseReport> {
        self.rt.stop()
    }
}

/// Something a node does later. `Ord` only so that [`DueEntry`] can derive
/// its own: `seq` is unique, so two of these are never compared.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    Timer { shard: ShardId, kind: u64 },
    Send { to: NodeId, frame: Vec<u8> },
}

/// Ordered by `(at, seq)`; the heap holds them [`Reverse`]d, earliest first.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct DueEntry {
    at: Instant,
    seq: u64,
    what: Due,
}

/// How long a node with nothing scheduled blocks before it looks at
/// [`Shared::stopping`] again. Nothing in normal operation waits for it.
const IDLE_WAIT: Duration = Duration::from_secs(5);

/// `ticks` ticks from now, saturating: a hold above `u32::MAX` ticks is
/// that long, not its low 32 bits, and never past what `Instant` can hold.
fn due_at(tick: Duration, ticks: u64) -> Instant {
    const FOREVER: Duration = Duration::from_secs(100 * 365 * 24 * 3600);
    let ticks = u32::try_from(ticks).unwrap_or(u32::MAX);
    Instant::now() + tick.saturating_mul(ticks).min(FOREVER)
}

/// One node thread: one protocol instance per element of `shards` behind
/// one endpoint, one heap of due timers and held frames.
fn node_main<P: WireProtocol, E: Endpoint, H: Plane>(
    config: &ClusterConfig,
    shards: Vec<ProtocolConfig>,
    mut endpoint: E,
    events_tx: Sender<H::Event>,
    shared: &Shared,
) -> CloseReport {
    let &ClusterConfig {
        n,
        tick,
        control_drop_p,
        ..
    } = config;
    let id = endpoint.id();
    let door = NodeId::new(n as u32);
    let seed = config.seed.wrapping_add(u64::from(id.raw()));
    let mut drop_rng = StdRng::seed_from_u64(seed ^ 0xD0D0_CACA);
    let start = Instant::now();
    let ticks_now = || -> SimTime {
        let t = start.elapsed().as_nanos() / tick.as_nanos().max(1);
        SimTime::from_ticks(t as u64)
    };
    // Each instance has its own generation space (shards never share
    // frames) and a shard-namespaced RNG seed. None keeps a log: all N
    // nodes share this process, and a log per node would hold every entry
    // N times over while `Released` already reports each one once.
    let mut harnesses: Vec<Harness<P>> = (0u64..)
        .zip(shards)
        .map(|(s, cfg)| {
            let node = P::build(cfg.with_record_log(false));
            Harness::new(id, Topology::ring(n), node, seed ^ (s << 32))
        })
        .collect();
    let mut heap: BinaryHeap<Reverse<DueEntry>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut schedule = |heap: &mut BinaryHeap<Reverse<DueEntry>>, ticks: u64, what: Due| {
        seq += 1;
        heap.push(Reverse(DueEntry {
            at: due_at(tick, ticks),
            seq,
            what,
        }));
    };
    let now0 = ticks_now();
    for harness in &mut harnesses {
        harness.init(now0);
    }

    loop {
        // Flush effects of the last dispatch, shard by shard. Events go out
        // *before* any outbound frames: once the token frame is on the wire,
        // the receiver can grant and publish its event, so publishing our
        // own events first is what keeps the merged event stream causally
        // ordered (Released always observed before the next Granted).
        let mut staged = false;
        for (s, harness) in harnesses.iter_mut().enumerate() {
            let shard = ShardId(s as u16);
            for ev in harness.node_mut().take_events() {
                if matches!(ev, TokenEvent::Granted { .. }) {
                    shared.grants[s * n + id.index()].fetch_add(1, Ordering::Relaxed);
                }
                let _ = events_tx.send(H::event(shard, id, ev));
            }
            for ob in harness.take_outbound() {
                if control_drop_p > 0.0
                    && ob.class == MsgClass::Control
                    && drop_rng.gen_bool(control_drop_p)
                {
                    continue; // the cheap channel lost it
                }
                let frame = H::wrap(shard, P::encode_msg(&ob.msg));
                if ob.hold == 0 {
                    endpoint.stage(ob.to, &frame);
                    staged = true;
                } else {
                    schedule(&mut heap, ob.hold, Due::Send { to: ob.to, frame });
                }
            }
            for t in harness.take_timers() {
                schedule(
                    &mut heap,
                    t.delay,
                    Due::Timer {
                        shard,
                        kind: t.kind,
                    },
                );
            }
        }
        if staged {
            endpoint.flush();
        }
        // Fire one overdue entry, or block until the next is due.
        let now = Instant::now();
        let wait = match heap.peek_mut() {
            Some(head) if head.0.at <= now => {
                match PeekMut::pop(head).0.what {
                    Due::Timer { shard, kind } => {
                        harnesses[shard.index()].fire_timer(ticks_now(), kind)
                    }
                    Due::Send { to, frame } => {
                        endpoint.stage(to, &frame);
                        endpoint.flush();
                    }
                }
                continue;
            }
            Some(head) => head.0.at.saturating_duration_since(now),
            None => IDLE_WAIT,
        };
        let Some((from, frame)) = endpoint.recv_timeout(wait) else {
            // Transports are best-effort, so a stop frame can be lost; the
            // flag bounds what that costs `shutdown` to one wake-up.
            if shared.stopping.load(Ordering::Acquire) {
                break;
            }
            continue;
        };
        // Untrusted network input: a frame that does not decode, names a
        // shard this node does not host, or speaks the control encoding
        // without being the door is counted and dropped, never panicked on
        // — one shard's garbage never reaches another's state, and the
        // sender's retransmit layer re-covers anything that mattered.
        let handled = if from == door {
            match DoorMsg::decode(&frame) {
                Some(DoorMsg::Stop) => break,
                Some(DoorMsg::Want(shard, want)) => harnesses
                    .get_mut(shard.index())
                    .map(|harness| harness.external(ticks_now(), want)),
                None => None,
            }
        } else {
            H::unwrap(&frame).and_then(|(shard, inner)| {
                let msg = P::decode_msg(inner).ok()?;
                harnesses
                    .get_mut(shard.index())
                    .map(|harness| harness.deliver(ticks_now(), from, msg))
            })
        };
        if handled.is_none() {
            shared.decode_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
    let report = endpoint.close();
    shared
        .frames_lost
        .fetch_add(endpoint.frames_lost(), Ordering::Relaxed);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_net::ChanEndpoint;

    use crate::naimi::NaimiNode;
    use crate::ring::RingNode;
    use crate::search::SearchNode;

    #[test]
    fn cluster_grants_a_request() {
        let cluster: Cluster = Cluster::start(ClusterConfig::new(3).with_tick(Duration::from_micros(200)));
        cluster.request(NodeId::new(1), 7);
        assert!(cluster.await_grant(NodeId::new(1), Duration::from_secs(10)));
        assert_eq!(cluster.decode_errors(), 0);
        cluster.shutdown();
    }

    #[test]
    fn cluster_serves_concurrent_requesters() {
        let cluster: Cluster = Cluster::start(ClusterConfig::new(4).with_tick(Duration::from_micros(200)));
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
    fn cluster_survives_total_cheap_loss() {
        // All search traffic lost: the rotating token still serves.
        let cluster: Cluster = Cluster::start(
            ClusterConfig::new(3)
                .with_tick(Duration::from_micros(200))
                .with_control_drop(1.0),
        );
        cluster.request(NodeId::new(2), 9);
        assert!(cluster.await_grant(NodeId::new(2), Duration::from_secs(15)));
        cluster.shutdown();
    }

    #[test]
    fn handles_are_cloneable_and_attributed() {
        let cluster: Cluster = Cluster::start(ClusterConfig::new(2).with_tick(Duration::from_micros(200)));
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
        let cluster: ShardedCluster<NaimiNode> =
            ShardedCluster::start_on::<atp_net::TcpTransport>(
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
        /// `recv_timeout` calls that returned `None`.
        timeouts: AtomicU64,
        /// Endpoints inside a `recv_timeout(IDLE_WAIT)` right now.
        idle: AtomicU64,
        /// `close` calls.
        closed: AtomicU64,
    }

    impl Tally {
        const fn new() -> Self {
            Tally {
                timeouts: AtomicU64::new(0),
                idle: AtomicU64::new(0),
                closed: AtomicU64::new(0),
            }
        }
    }

    trait Script: 'static {
        fn tally() -> &'static Tally;
        /// Frames endpoint `node` of an `n`-node cluster (the door is
        /// endpoint `n`) receives before any real traffic.
        fn prelude(_node: usize, _n: usize) -> Vec<(NodeId, Vec<u8>)> {
            Vec::new()
        }
        /// Whether the transport loses `frame` instead of carrying it.
        fn loses(_frame: &[u8]) -> bool {
            false
        }
    }

    /// `T` with every endpoint counting what the node loop does with it.
    struct ProbeTransport<T, S>(std::marker::PhantomData<fn() -> (T, S)>);

    struct ProbeEndpoint<E, S> {
        inner: E,
        prelude: std::collections::VecDeque<(NodeId, Vec<u8>)>,
        _script: std::marker::PhantomData<fn() -> S>,
    }

    impl<E: Endpoint, S: Script> Endpoint for ProbeEndpoint<E, S> {
        fn id(&self) -> NodeId {
            self.inner.id()
        }
        fn stage(&mut self, to: NodeId, frame: &[u8]) {
            if !S::loses(frame) {
                self.inner.stage(to, frame);
            }
        }
        fn flush(&mut self) {
            self.inner.flush();
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
            if let Some(scripted) = self.prelude.pop_front() {
                return Some(scripted);
            }
            let idle = timeout >= IDLE_WAIT;
            if idle {
                S::tally().idle.fetch_add(1, Ordering::SeqCst);
            }
            let got = self.inner.recv_timeout(timeout);
            if idle {
                S::tally().idle.fetch_sub(1, Ordering::SeqCst);
            }
            if got.is_none() {
                S::tally().timeouts.fetch_add(1, Ordering::SeqCst);
            }
            got
        }
        fn frames_lost(&self) -> u64 {
            self.inner.frames_lost()
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
        fn endpoints(m: usize) -> std::io::Result<Vec<Self::Endpoint>> {
            Ok(T::endpoints(m)?
                .into_iter()
                .enumerate()
                .map(|(i, inner)| ProbeEndpoint {
                    inner,
                    prelude: S::prelude(i, m - 1).into(),
                    _script: std::marker::PhantomData,
                })
                .collect())
        }
    }

    fn fast(n: usize) -> ClusterConfig {
        ClusterConfig::new(n).with_tick(Duration::from_micros(200))
    }

    /// Spins (test code only) until all `n` node threads are blocked with
    /// nothing scheduled.
    fn wait_until_idle<S: Script>(n: u64) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while S::tally().idle.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "the cluster never went idle");
            std::thread::sleep(Duration::from_millis(1));
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
            "{timeouts} receive time-outs for 200 idle grants"
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
            wait_until_idle::<S>(3);
            // IDLE_WAIT is longer than the limit, so only the stop frame
            // can have woken the nodes in time.
            let begun = Instant::now();
            if by_drop {
                drop(cluster);
            } else {
                let reports = cluster.shutdown();
                assert_eq!(reports.len(), 4, "three nodes and the door");
                assert!(reports.iter().all(CloseReport::is_clean), "{reports:?}");
            }
            let took = begun.elapsed();
            assert!(took < Duration::from_secs(2), "{}: {took:?}", T::label());
            let closed = S::tally().closed.load(Ordering::SeqCst) - closed_before;
            assert_eq!(
                closed, 4,
                "every node thread and the door closed its endpoint"
            );
        }
        stops::<ChanTransport>(false);
        stops::<ChanTransport>(true);
        stops::<atp_net::TcpTransport>(false);
        stops::<atp_net::TcpTransport>(true);
    }

    #[test]
    fn a_lost_stop_frame_costs_one_long_wait_not_a_hang() {
        struct S;
        impl Script for S {
            fn tally() -> &'static Tally {
                static T: Tally = Tally::new();
                &T
            }
            fn loses(frame: &[u8]) -> bool {
                DoorMsg::decode(frame) == Some(DoorMsg::Stop)
            }
        }
        let cluster: Cluster<SearchNode> =
            Cluster::start_on::<ProbeTransport<ChanTransport, S>>(fast(3)).expect("infallible");
        cluster.request(NodeId::new(1), 1);
        assert!(cluster.await_grant(NodeId::new(1), Duration::from_secs(20)));
        wait_until_idle::<S>(3);
        // No stop frame arrives, so each node leaves when its idle wait
        // runs out and it reads the flag: one time-out per node, no more.
        let timeouts_before = S::tally().timeouts.load(Ordering::SeqCst);
        let begun = Instant::now();
        let reports = cluster.shutdown();
        let took = begun.elapsed();
        assert!(took < IDLE_WAIT + Duration::from_secs(2), "{took:?}");
        assert_eq!(
            S::tally().timeouts.load(Ordering::SeqCst) - timeouts_before,
            3
        );
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(CloseReport::is_clean), "{reports:?}");
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
                let (member, door) = (NodeId::new(1), NodeId::new(n as u32));
                let want = DoorMsg::Want(ShardId(0), Want::new(77)).encode();
                let mut bad_kind = want.clone();
                bad_kind[1] = 9;
                vec![
                    // Well-formed control frames from a ring member.
                    (member, DoorMsg::Stop.encode()),
                    (member, want.clone()),
                    // Malformed frames from the door itself.
                    (door, Vec::new()),
                    (door, want[..want.len() - 1].to_vec()),
                    (door, bad_kind),
                    (door, DoorMsg::Want(ShardId(9), Want::new(78)).encode()),
                ]
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

        // The sharded plane runs the same loop: the envelope decoder
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
    fn control_encoding_round_trips_and_rejects_everything_else() {
        let wants = [
            Want::new(0),
            Want::new(u64::MAX),
            Want::leave(),
            Want::rejoin(),
        ];
        for want in wants {
            for shard in [ShardId(0), ShardId(3), ShardId(u16::MAX)] {
                let msg = DoorMsg::Want(shard, want);
                let bytes = msg.encode();
                assert_eq!(DoorMsg::decode(&bytes), Some(msg));
                assert_eq!(
                    DoorMsg::decode(&bytes[..bytes.len() - 1]),
                    None,
                    "truncated"
                );
                assert_eq!(
                    DoorMsg::decode(&[&bytes[..], &[0]].concat()),
                    None,
                    "trailing byte"
                );
            }
        }
        assert_eq!(
            DoorMsg::decode(&DoorMsg::Stop.encode()),
            Some(DoorMsg::Stop)
        );
        assert_eq!(DoorMsg::decode(&[TAG_DOOR_STOP, 0]), None);
        assert_eq!(DoorMsg::decode(&[]), None);
        // No data decoder may accept what the door says.
        let data_tags = [
            crate::codec::known_binary_tags(),
            crate::codec::known_ring_tags(),
            crate::codec::known_search_tags(),
            crate::codec::known_naimi_tags(),
            crate::codec::known_shard_tags(),
        ];
        for tag in [TAG_DOOR_WANT, TAG_DOOR_STOP] {
            assert!(
                data_tags.iter().all(|known| !known.contains(&tag)),
                "{tag:#x} is a data tag"
            );
        }
    }

    #[test]
    fn a_door_poisoned_by_a_panicking_client_still_serves_and_stops() {
        let cluster: Cluster = Cluster::start(fast(3));
        let door = Arc::clone(&cluster.rt.door);
        let client = std::thread::spawn(move || {
            let _held = door.0.lock().expect("first lock");
            panic!("client dies holding the door (expected by this test)");
        });
        assert!(client.join().is_err());
        assert!(cluster.rt.door.0.is_poisoned());
        cluster.request(NodeId::new(1), 3);
        assert!(cluster.await_grant(NodeId::new(1), Duration::from_secs(10)));
        let reports = cluster.shutdown();
        assert_eq!(reports.len(), 4);
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
