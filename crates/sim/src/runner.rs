//! Drives a protocol run: world construction, arrival injection, event
//! collection, metric accumulation.

use std::time::Instant;

use atp_core::{
    BinaryNode, NaimiNode, ProtocolConfig, RingNode, SearchNode, TokenEvent, TokenNode, Want,
    WireProtocol,
};
use atp_net::{
    FailurePlan, Latency, LinkFaults, MsgClass, NodeId, PerLinkLatency, SchedStats, SimTime,
    StepOutcome, World, WorldConfig,
};
use atp_util::json::JsonWriter;
use atp_util::metrics::Registry;
use atp_util::rng::{SeedableRng, StdRng};

use crate::metrics::{Metrics, MetricsSummary};
use crate::span::{RequestSpan, SpanCollector, SpanReport};
use crate::workload::Workload;

/// Which protocol an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Plain rotating ring (System Message-Passing + rule 3′) — the paper's
    /// "regular token rotation protocol" baseline.
    Ring,
    /// Lazy token + linear search (System Search, cyclic restriction).
    Search,
    /// System BinarySearch — the paper's contribution.
    Binary,
    /// Naimi–Tréhel path reversal — the standard O(log N)-average
    /// dynamic-tree competitor the paper's protocol is measured against.
    Naimi,
}

impl Protocol {
    /// All protocols, for sweep tables.
    pub const ALL: [Protocol; 4] = [
        Protocol::Ring,
        Protocol::Search,
        Protocol::Binary,
        Protocol::Naimi,
    ];

    /// Short label for report rows.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Ring => "ring",
            Protocol::Search => "search",
            Protocol::Binary => "binary",
            Protocol::Naimi => "naimi",
        }
    }

    /// Parses a [`Protocol::label`] string, as accepted by every CLI flag
    /// and tape file. The canonical inverse of `label`: a new protocol
    /// added to [`Protocol::ALL`] is parseable everywhere at once.
    pub fn from_label(s: &str) -> Option<Protocol> {
        Protocol::ALL.into_iter().find(|p| p.label() == s)
    }

    /// Monomorphizes `visitor` over this protocol's node type.
    ///
    /// This is the **single** label-to-node-type dispatch point in the
    /// workspace: the experiment runner, the DST engine and the cluster
    /// binary all hand a [`ProtocolVisitor`] to this method, so a new
    /// protocol variant fails to compile here rather than silently
    /// dodging one of the hosts.
    pub fn dispatch<V: ProtocolVisitor>(self, visitor: V) -> V::Out {
        match self {
            Protocol::Ring => visitor.run::<RingNode>(),
            Protocol::Search => visitor.run::<SearchNode>(),
            Protocol::Binary => visitor.run::<BinaryNode>(),
            Protocol::Naimi => visitor.run::<NaimiNode>(),
        }
    }
}

/// One generic computation over a protocol's node type, for
/// [`Protocol::dispatch`]. Implementations get the concrete
/// [`ProtocolNode`] as a type parameter and may consume captured state
/// (`self` is taken by value).
pub trait ProtocolVisitor {
    /// The dispatch result.
    type Out;
    /// Runs the computation with `N` bound to the protocol's node type.
    fn run<N: ProtocolNode>(self) -> Self::Out;
}

/// A protocol node the experiment runner can host.
///
/// Implemented for every node type of `atp-core` through
/// [`TokenNode`]; the runner is generic over this so new protocol variants
/// plug in without touching experiments.
pub trait ProtocolNode: WireProtocol {
    /// Grants received so far (cross-checks the metrics stream).
    fn grants_count(&self) -> u64;
    /// Length of the node's applied history prefix.
    fn applied_len(&self) -> u64;
    /// Whether the node currently holds the token (uniqueness oracle).
    fn holds_token_now(&self) -> bool;
    /// Highest token generation witnessed (regeneration-epoch oracle).
    fn token_generation(&self) -> u32;
    /// Duplicate token frames discarded by the handoff watermark.
    fn dup_discarded_count(&self) -> u64;
    /// Token frames re-sent by the ack/retransmit state machine.
    fn retransmit_count(&self) -> u64;
}

impl<N: TokenNode + WireProtocol> ProtocolNode for N {
    fn grants_count(&self) -> u64 {
        self.grants()
    }
    fn applied_len(&self) -> u64 {
        self.order().applied_seq()
    }
    fn holds_token_now(&self) -> bool {
        self.holds_token()
    }
    fn token_generation(&self) -> u32 {
        self.generation()
    }
    fn dup_discarded_count(&self) -> u64 {
        self.duplicate_tokens_discarded()
    }
    fn retransmit_count(&self) -> u64 {
        self.token_retransmits()
    }
}

/// The complete network-side shape of a run: latency model, unified
/// link-fault model and post-horizon drain window, in one typed value
/// shared by [`ExperimentSpec`] and [`crate::sweep::PointSpec`] and
/// serialized uniformly into every run's JSON summary.
#[derive(Debug, Clone)]
pub struct NetProfile {
    /// Uniform latency bounds `(lo, hi)`; `(1, 1)` is the paper's
    /// unit-delay model.
    pub latency: (u64, u64),
    /// Optional per-link latency matrix (e.g. geographic RTTs) overriding
    /// the uniform bounds.
    pub matrix: Option<PerLinkLatency>,
    /// The unified link-fault model: control drops, whole-link loss and
    /// duplication.
    pub faults: LinkFaults,
    /// Post-horizon drain window in ticks; `None` uses the canonical
    /// `10 * n + 100`.
    pub grace_ticks: Option<u64>,
}

impl Default for NetProfile {
    fn default() -> Self {
        NetProfile::unit()
    }
}

impl NetProfile {
    /// The paper's canonical regime: unit delays, a fault-free network,
    /// default grace.
    pub fn unit() -> Self {
        NetProfile {
            latency: (1, 1),
            matrix: None,
            faults: LinkFaults::new(),
            grace_ticks: None,
        }
    }

    /// Sets the uniform latency bounds.
    pub fn latency(mut self, lo: u64, hi: u64) -> Self {
        self.latency = (lo, hi);
        self
    }

    /// Overrides message latency with a per-link matrix.
    pub fn latency_matrix(mut self, matrix: PerLinkLatency) -> Self {
        self.matrix = Some(matrix);
        self
    }

    /// Sets the control-message drop probability.
    pub fn control_drops(mut self, p: f64) -> Self {
        self.faults = self.faults.control_loss(p);
        self
    }

    /// Sets whole-link loss and duplication probabilities (all message
    /// classes, token frames included).
    pub fn link_faults(mut self, loss_p: f64, dup_p: f64) -> Self {
        self.faults = self.faults.loss(loss_p).duplication(dup_p);
        self
    }

    /// Overrides the post-horizon grace window (straggler drain time).
    pub fn grace(mut self, ticks: u64) -> Self {
        self.grace_ticks = Some(ticks);
        self
    }

    /// The effective grace window for a ring of `n` nodes.
    pub fn grace_for(&self, n: usize) -> u64 {
        self.grace_ticks.unwrap_or(10 * n as u64 + 100)
    }

    /// Writes this profile as a JSON object value into `w` (fixed field
    /// order; the latency matrix is summarized as a flag since its cells
    /// are derived data).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.key("latency_lo");
        w.u64(self.latency.0);
        w.key("latency_hi");
        w.u64(self.latency.1);
        w.key("per_link_matrix");
        w.bool(self.matrix.is_some());
        w.key("control_loss_p");
        w.f64(self.faults.control_loss_p());
        w.key("loss_p");
        w.f64(self.faults.loss_p());
        w.key("dup_p");
        w.f64(self.faults.duplication_p());
        // Link faults never delay or sever; these two keys stay, as
        // constants, so that every summary keeps its bytes.
        w.key("delay_p");
        w.f64(0.0);
        w.key("severed_links");
        w.u64(0);
        w.key("grace_ticks");
        match self.grace_ticks {
            Some(t) => w.u64(t),
            None => w.null(),
        }
        w.end_obj();
    }
}

/// Everything one experiment run needs.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Which protocol to run.
    pub protocol: Protocol,
    /// Ring size.
    pub n: usize,
    /// Protocol tunables.
    pub cfg: ProtocolConfig,
    /// Open-loop arrival horizon, in ticks.
    pub horizon_ticks: u64,
    /// Determinism seed (world and workload).
    pub seed: u64,
    /// The network-side shape: latency, faults, grace.
    pub net: NetProfile,
    /// Scripted crashes/recoveries (and partitions, via
    /// [`FailurePlan::partition_at`]).
    pub failures: FailurePlan,
}

impl ExperimentSpec {
    /// A spec in the paper's canonical regime: unit delays, no faults, no
    /// failures, grace of `10 * n + 100`.
    pub fn new(protocol: Protocol, n: usize, horizon_ticks: u64) -> Self {
        ExperimentSpec {
            protocol,
            n,
            cfg: ProtocolConfig::default().with_record_log(false),
            horizon_ticks,
            seed: 0,
            net: NetProfile::unit(),
            failures: FailurePlan::new(),
        }
    }

    /// Overrides the protocol configuration.
    pub fn with_cfg(mut self, cfg: ProtocolConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the network profile.
    pub fn with_net(mut self, net: NetProfile) -> Self {
        self.net = net;
        self
    }

    /// Sets the failure plan.
    pub fn with_failures(mut self, failures: FailurePlan) -> Self {
        self.failures = failures;
        self
    }
}

/// Network-side counters of a finished run.
#[derive(Debug, Clone, Copy)]
pub struct NetSummary {
    /// Token-class messages sent.
    pub token_sent: u64,
    /// Control-class messages sent.
    pub control_sent: u64,
    /// Control-class messages dropped by the loss model.
    pub control_dropped: u64,
    /// Token-class frames lost or duplicated by the link-fault model
    /// (losses and copies combined; 0 when the model is off).
    pub token_faulted: u64,
    /// Messages of any class cut by an active partition.
    pub severed: u64,
    /// Duplicate token frames discarded by node handoff watermarks.
    pub dup_tokens_discarded: u64,
    /// Token frames re-sent by the ack/retransmit state machine.
    pub token_retransmits: u64,
    /// Total events dispatched.
    pub events: u64,
}

impl NetSummary {
    /// Writes this summary as a JSON object value into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.key("token_sent");
        w.u64(self.token_sent);
        w.key("control_sent");
        w.u64(self.control_sent);
        w.key("control_dropped");
        w.u64(self.control_dropped);
        w.key("token_faulted");
        w.u64(self.token_faulted);
        w.key("severed");
        w.u64(self.severed);
        w.key("dup_tokens_discarded");
        w.u64(self.dup_tokens_discarded);
        w.key("token_retransmits");
        w.u64(self.token_retransmits);
        w.key("events");
        w.u64(self.events);
        w.end_obj();
    }
}

/// The result of one experiment run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Protocol that ran.
    pub protocol: Protocol,
    /// Workload label.
    pub workload: String,
    /// The network profile the run used.
    pub net_profile: NetProfile,
    /// Protocol metrics (responsiveness, waiting, fairness, …).
    pub metrics: MetricsSummary,
    /// Network counters.
    pub net: NetSummary,
    /// Request-lifecycle span aggregate (phase timings, forward counts,
    /// per-class byte counters).
    pub spans: SpanReport,
    /// Ticks simulated.
    pub duration_ticks: u64,
}

impl RunSummary {
    /// Renders the full summary as a deterministic JSON document.
    ///
    /// Field order is fixed, so two identical runs produce byte-identical
    /// strings — the determinism end-to-end tests compare these directly.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("protocol");
        w.str(self.protocol.label());
        w.key("workload");
        w.str(&self.workload);
        w.key("net_profile");
        self.net_profile.write_json(&mut w);
        w.key("metrics");
        self.metrics.write_json(&mut w);
        w.key("net");
        self.net.write_json(&mut w);
        w.key("spans");
        self.spans.write_json(&mut w);
        w.key("duration_ticks");
        w.u64(self.duration_ticks);
        w.end_obj();
        w.finish()
    }

    /// Folds this run's observability counters into a metrics
    /// [`Registry`]: span aggregates under `span.*`, network counters
    /// under `net.*`. Registries from sweep shards merge exactly, so the
    /// combined artifact is byte-identical at any thread count.
    pub fn fill_registry(&self, reg: &mut Registry) {
        self.spans.fill_registry(reg);
        reg.counter_add("net.token.sent", self.net.token_sent);
        reg.counter_add("net.control.sent", self.net.control_sent);
        reg.counter_add("net.control.dropped", self.net.control_dropped);
        reg.counter_add("net.token.faulted", self.net.token_faulted);
        reg.counter_add("net.severed", self.net.severed);
        reg.counter_add("net.token.dup_discarded", self.net.dup_tokens_discarded);
        reg.counter_add("net.token.retransmits", self.net.token_retransmits);
        reg.counter_add("net.events", self.net.events);
        reg.counter_add("run.grants", self.metrics.grants);
        reg.counter_add("run.requests", self.metrics.requests);
    }
}

/// Wall-clock phase breakdown of one run's drive loop. Observability
/// only: `atpbench` reads it into its per-layer table, and it never enters
/// a compared artifact, since wall time is nondeterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunProfile {
    /// Nanoseconds spent popping events off the world's queue.
    pub pop_ns: u64,
    /// Nanoseconds spent delivering events (node callbacks, fault draws).
    pub deliver_ns: u64,
    /// Nanoseconds spent draining node event buffers into metrics/spans.
    pub drain_ns: u64,
    /// Events dispatched.
    pub steps: u64,
    /// Scheduler internals: timer-wheel cascades, overflow promotions and
    /// slot-arena byte reuse. Unlike the `*_ns` fields these counters are
    /// deterministic, but they stay profile-only: they describe the
    /// engine, not the protocol under test.
    pub sched: SchedStats,
}

impl RunProfile {
    /// Accumulates another profile into this one.
    pub fn merge(&mut self, other: &RunProfile) {
        self.pop_ns += other.pop_ns;
        self.deliver_ns += other.deliver_ns;
        self.drain_ns += other.drain_ns;
        self.steps += other.steps;
        self.sched.merge(&other.sched);
    }
}

/// Everything a traced run produces beyond its summary.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// Every request span, in `(requested_at, req)` order.
    pub spans: Vec<RequestSpan>,
    /// The world's bounded network trace as JSON lines (empty unless the
    /// run was traced).
    pub net_trace_jsonl: String,
    /// Wall-clock phase profile, when profiling was on.
    pub profile: Option<RunProfile>,
}

/// Per-run drive options beyond the deterministic [`ExperimentSpec`]:
/// wall-clock profiling and bounded network tracing. None of these affect
/// the simulation's event stream.
#[derive(Debug, Clone, Copy, Default)]
struct DriveOptions {
    profile: bool,
    trace_capacity: usize,
}

/// Runs `spec` under `workload` and returns the summary.
///
/// Fully deterministic for a given `(spec, workload)` pair.
pub fn run_experiment(spec: &ExperimentSpec, workload: &mut dyn Workload) -> RunSummary {
    dispatch(spec, workload, DriveOptions::default()).0
}

/// Like [`run_experiment`], but also measures the drive loop's wall-clock
/// phase breakdown (queue pop / deliver / event drain).
pub fn run_experiment_profiled(
    spec: &ExperimentSpec,
    workload: &mut dyn Workload,
) -> (RunSummary, RunProfile) {
    let (summary, art) = dispatch(
        spec,
        workload,
        DriveOptions {
            profile: true,
            trace_capacity: 0,
        },
    );
    (summary, art.profile.unwrap_or_default())
}

/// Like [`run_experiment`], but retains full observability artifacts: the
/// per-request spans and the world's bounded network trace
/// (`trace_capacity` most recent events).
pub fn run_experiment_traced(
    spec: &ExperimentSpec,
    workload: &mut dyn Workload,
    trace_capacity: usize,
) -> (RunSummary, RunArtifacts) {
    dispatch(
        spec,
        workload,
        DriveOptions {
            profile: false,
            trace_capacity,
        },
    )
}

fn dispatch(
    spec: &ExperimentSpec,
    workload: &mut dyn Workload,
    opts: DriveOptions,
) -> (RunSummary, RunArtifacts) {
    struct Drive<'a> {
        spec: &'a ExperimentSpec,
        workload: &'a mut dyn Workload,
        opts: DriveOptions,
    }
    impl ProtocolVisitor for Drive<'_> {
        type Out = (RunSummary, RunArtifacts);
        fn run<N: ProtocolNode>(self) -> Self::Out {
            drive::<N>(self.spec, self.workload, self.opts)
        }
    }
    spec.protocol.dispatch(Drive {
        spec,
        workload,
        opts,
    })
}

fn drive<N: ProtocolNode>(
    spec: &ExperimentSpec,
    workload: &mut dyn Workload,
    opts: DriveOptions,
) -> (RunSummary, RunArtifacts) {
    // Unit delay stays `Constant`: a uniform `1..=1` would draw per message.
    let latency = match (&spec.net.matrix, spec.net.latency) {
        (Some(matrix), _) => Latency::PerLink(matrix.clone()),
        (None, (1, 1)) => Latency::Constant(1),
        (None, (lo, hi)) => Latency::Uniform { lo, hi },
    };
    let world_cfg = WorldConfig::default()
        .seed(spec.seed)
        .profile(opts.profile)
        .trace_capacity(opts.trace_capacity)
        .latency(latency)
        .link_faults(spec.net.faults.clone());
    let nodes = (0..spec.n).map(|_| N::build(spec.cfg)).collect();
    let mut world: World<N> = World::from_nodes(nodes, world_cfg);
    world.apply_failure_plan(&spec.failures);

    let horizon = SimTime::from_ticks(spec.horizon_ticks);
    let deadline = horizon.saturating_add(spec.net.grace_for(spec.n));
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x9e37_79b9_7f4a_7c15);
    let arrivals = workload.arrivals(spec.n, horizon, &mut rng);
    world.reserve_events(arrivals.len());
    for a in arrivals {
        world.schedule_external(a.at, a.node, Want::new(a.payload));
    }

    let mut metrics = Metrics::new(spec.n);
    let mut spans = SpanCollector::new();
    let mut drain_ns = 0u64;
    // One drain buffer for the whole run: each dispatch moves the node's
    // buffered events here instead of allocating a fresh Vec per step.
    let mut drained: Vec<TokenEvent> = Vec::new();
    loop {
        match world.step() {
            StepOutcome::Quiescent => break,
            StepOutcome::Consumed { at } => {
                if at >= deadline {
                    break;
                }
            }
            StepOutcome::Dispatched { node, at } => {
                let t0 = opts.profile.then(Instant::now);
                drained.clear();
                world.node_mut(node).take_events_into(&mut drained);
                for ev in &drained {
                    metrics.on_event(node, ev);
                    spans.on_event(ev);
                    if let TokenEvent::Released { .. } = ev {
                        if let Some(arr) = workload.on_release(node, at, &mut rng) {
                            if arr.at <= horizon {
                                world.schedule_external(arr.at, arr.node, Want::new(arr.payload));
                            }
                        }
                    }
                }
                if let Some(t0) = t0 {
                    drain_ns += t0.elapsed().as_nanos() as u64;
                }
                if at >= horizon && metrics.unserved() == 0 {
                    break;
                }
                if at >= deadline {
                    break;
                }
            }
        }
    }
    // Collect events buffered at nodes that did not dispatch again; most
    // nodes have none, so check before touching them mutably.
    for i in 0..world.len() {
        let node = NodeId::new(i as u32);
        if !world.node(node).has_events() {
            continue;
        }
        drained.clear();
        world.node_mut(node).take_events_into(&mut drained);
        for ev in &drained {
            metrics.on_event(node, ev);
            spans.on_event(ev);
        }
    }

    let dup_tokens_discarded: u64 = world.nodes().map(|(_, n)| n.dup_discarded_count()).sum();
    let token_retransmits: u64 = world.nodes().map(|(_, n)| n.retransmit_count()).sum();
    let profile = world.profile().map(|p| RunProfile {
        pop_ns: p.pop_ns,
        deliver_ns: p.deliver_ns,
        drain_ns,
        steps: p.steps,
        sched: world.sched_stats(),
    });
    let stats = world.stats();
    let summary = RunSummary {
        protocol: spec.protocol,
        workload: workload.label(),
        net_profile: spec.net.clone(),
        metrics: metrics.summarize(),
        net: NetSummary {
            token_sent: stats.sent(MsgClass::Token),
            control_sent: stats.sent(MsgClass::Control),
            control_dropped: stats.dropped(MsgClass::Control),
            token_faulted: stats.dropped(MsgClass::Token) + stats.duplicated(MsgClass::Token),
            severed: stats.severed(MsgClass::Token) + stats.severed(MsgClass::Control),
            dup_tokens_discarded,
            token_retransmits,
            events: stats.events_processed,
        },
        spans: spans.report(),
        duration_ticks: world.now().ticks(),
    };
    let artifacts = RunArtifacts {
        spans: if opts.trace_capacity > 0 {
            spans.spans()
        } else {
            Vec::new()
        },
        net_trace_jsonl: world.trace().to_json_lines(),
        profile,
    };
    (summary, artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{GlobalPoisson, SingleShot};

    #[test]
    fn ring_run_produces_consistent_summary() {
        let spec = ExperimentSpec::new(Protocol::Ring, 8, 2_000);
        let mut wl = GlobalPoisson::new(20.0);
        let s = run_experiment(&spec, &mut wl);
        assert!(s.metrics.requests > 50, "requests = {}", s.metrics.requests);
        assert_eq!(
            s.metrics.grants + s.metrics.unserved as u64,
            s.metrics.requests
        );
        assert!(s.net.token_sent > 0);
        assert!(s.duration_ticks >= 2_000);
    }

    #[test]
    fn binary_beats_ring_on_light_load() {
        let n = 64;
        let mut ring_wl = GlobalPoisson::new(200.0);
        let ring = run_experiment(
            &ExperimentSpec::new(Protocol::Ring, n, 50_000),
            &mut ring_wl,
        );
        let mut bin_wl = GlobalPoisson::new(200.0);
        let binary = run_experiment(
            &ExperimentSpec::new(Protocol::Binary, n, 50_000),
            &mut bin_wl,
        );
        assert!(
            binary.metrics.responsiveness.mean < ring.metrics.responsiveness.mean / 2.0,
            "binary {} vs ring {}",
            binary.metrics.responsiveness.mean,
            ring.metrics.responsiveness.mean
        );
    }

    #[test]
    fn search_serves_single_shot() {
        let spec = ExperimentSpec::new(Protocol::Search, 16, 100);
        let mut wl = SingleShot::new(SimTime::from_ticks(5), NodeId::new(9));
        let s = run_experiment(&spec, &mut wl);
        assert_eq!(s.metrics.grants, 1);
        assert_eq!(s.metrics.unserved, 0);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let spec = ExperimentSpec::new(Protocol::Binary, 12, 3_000).with_seed(7);
            let mut wl = GlobalPoisson::new(15.0);
            let s = run_experiment(&spec, &mut wl);
            (
                s.metrics.grants,
                s.metrics.responsiveness.mean.to_bits(),
                s.net.token_sent,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn control_drops_degrade_but_do_not_break_binary() {
        let spec = ExperimentSpec::new(Protocol::Binary, 16, 5_000)
            .with_net(NetProfile::unit().control_drops(1.0));
        let mut wl = GlobalPoisson::new(50.0);
        let s = run_experiment(&spec, &mut wl);
        // All searches lost: rotation still serves every request.
        assert_eq!(s.metrics.unserved, 0);
        assert!(s.metrics.grants > 0);
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(Protocol::Ring.label(), "ring");
        assert_eq!(Protocol::Search.label(), "search");
        assert_eq!(Protocol::Binary.label(), "binary");
        assert_eq!(Protocol::Naimi.label(), "naimi");
        assert_eq!(Protocol::ALL.len(), 4);
    }
}
