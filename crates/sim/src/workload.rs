//! Request-arrival processes.
//!
//! The paper's simulation study drives the protocols with a fixed-rate
//! arrival process ("on average, every 10 time units, one of the nodes in
//! the system makes a request") — [`GlobalPoisson`] reproduces it. The other
//! generators probe the regimes the introduction motivates: per-node demand
//! ([`PerNodePoisson`]), bursty but infrequent use ([`Bursty`]), saturation
//! ([`Saturated`]), one-off requests ([`SingleShot`]) and the Theorem 3
//! fairness adversary ([`HogAndWaiter`]).

use atp_net::{NodeId, SimTime};
use atp_util::rng::{Rng, StdRng};

/// One scheduled request: node `node` becomes ready at `at` wanting to
/// broadcast `payload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the node becomes ready.
    pub at: SimTime,
    /// The node.
    pub node: NodeId,
    /// The datum it will broadcast.
    pub payload: u64,
}

/// A request-arrival process.
///
/// Open-loop arrivals are pre-generated by [`Workload::arrivals`]; the
/// closed-loop hook [`Workload::on_release`] lets saturated workloads
/// re-request as soon as service completes.
pub trait Workload {
    /// All open-loop arrivals in `[0, horizon]` for a ring of `n` nodes.
    fn arrivals(&mut self, n: usize, horizon: SimTime, rng: &mut StdRng) -> Vec<Arrival>;

    /// Called when `node` finishes a service at `at`; may schedule a
    /// follow-up request (closed loop). Default: none.
    fn on_release(&mut self, _node: NodeId, _at: SimTime, _rng: &mut StdRng) -> Option<Arrival> {
        None
    }

    /// A short label for reports.
    fn label(&self) -> String;
}

/// Samples an exponential with the given mean via inversion
/// ([`atp_util::dist::exponential`]). A mean of zero degenerates to a
/// constant zero gap.
fn exp_gap(mean: f64, rng: &mut StdRng) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    atp_util::dist::exponential(rng, mean).round() as u64
}

/// The paper's Figure 9/10 process: system-wide Poisson arrivals with mean
/// inter-request gap `mean_gap`; each request lands on a uniformly random
/// node.
#[derive(Debug, Clone, Copy)]
pub struct GlobalPoisson {
    /// Mean ticks between consecutive requests (system-wide).
    pub mean_gap: f64,
}

impl GlobalPoisson {
    /// Creates the process with the given mean gap.
    pub fn new(mean_gap: f64) -> Self {
        GlobalPoisson { mean_gap }
    }
}

impl Workload for GlobalPoisson {
    fn arrivals(&mut self, n: usize, horizon: SimTime, rng: &mut StdRng) -> Vec<Arrival> {
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        let mut payload = 0;
        loop {
            t = t.saturating_add(exp_gap(self.mean_gap, rng).max(1));
            if t > horizon {
                break;
            }
            payload += 1;
            out.push(Arrival {
                at: t,
                node: NodeId::new(rng.gen_range(0..n as u32)),
                payload,
            });
        }
        out
    }

    fn label(&self) -> String {
        format!("global-poisson(gap={})", self.mean_gap)
    }
}

/// Independent Poisson arrivals at every node with per-node mean gap.
#[derive(Debug, Clone, Copy)]
pub struct PerNodePoisson {
    /// Mean ticks between requests at each individual node.
    pub mean_gap: f64,
}

impl PerNodePoisson {
    /// Creates the process with the given per-node mean gap.
    pub fn new(mean_gap: f64) -> Self {
        PerNodePoisson { mean_gap }
    }
}

impl Workload for PerNodePoisson {
    fn arrivals(&mut self, n: usize, horizon: SimTime, rng: &mut StdRng) -> Vec<Arrival> {
        let mut out = Vec::new();
        let mut payload = 0;
        for node in 0..n as u32 {
            let mut t = SimTime::ZERO;
            loop {
                t = t.saturating_add(exp_gap(self.mean_gap, rng).max(1));
                if t > horizon {
                    break;
                }
                payload += 1;
                out.push(Arrival {
                    at: t,
                    node: NodeId::new(node),
                    payload,
                });
            }
        }
        out.sort_by_key(|a| a.at);
        out
    }

    fn label(&self) -> String {
        format!("per-node-poisson(gap={})", self.mean_gap)
    }
}

/// Bursty on/off demand: long quiet periods, then a burst of requests from a
/// random neighbourhood — "excellent response when the use is bursty but
/// infrequent" is the tree-protocol regime the adaptive scheme must match.
#[derive(Debug, Clone, Copy)]
pub struct Bursty {
    /// Mean quiet gap between bursts.
    pub burst_gap: f64,
    /// Requests per burst.
    pub burst_size: usize,
    /// Ticks between requests inside a burst.
    pub within_gap: u64,
    /// Width of the neighbourhood a burst draws nodes from.
    pub locality: usize,
}

impl Bursty {
    /// A default bursty profile: bursts of 5, localized to 4 neighbours.
    pub fn new(burst_gap: f64) -> Self {
        Bursty {
            burst_gap,
            burst_size: 5,
            within_gap: 1,
            locality: 4,
        }
    }
}

impl Workload for Bursty {
    fn arrivals(&mut self, n: usize, horizon: SimTime, rng: &mut StdRng) -> Vec<Arrival> {
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        let mut payload = 0;
        loop {
            t = t.saturating_add(exp_gap(self.burst_gap, rng).max(1));
            if t > horizon {
                break;
            }
            let base = rng.gen_range(0..n as u32);
            for k in 0..self.burst_size {
                let at = t.saturating_add(k as u64 * self.within_gap);
                if at > horizon {
                    break;
                }
                payload += 1;
                let node = (base + rng.gen_range(0..self.locality.max(1) as u32)) % n as u32;
                out.push(Arrival {
                    at,
                    node: NodeId::new(node),
                    payload,
                });
            }
        }
        out.sort_by_key(|a| a.at);
        out
    }

    fn label(&self) -> String {
        format!(
            "bursty(gap={},size={},local={})",
            self.burst_gap, self.burst_size, self.locality
        )
    }
}

/// Saturation: every node requests at time zero and re-requests `think`
/// ticks after each release (closed loop). This is the regime in which
/// "ring-based protocols maximize throughput".
#[derive(Debug, Clone, Copy)]
pub struct Saturated {
    /// Ticks between a release and the node's next request.
    pub think: u64,
    next_payload: u64,
}

impl Saturated {
    /// Creates a saturated workload with the given think time.
    pub fn new(think: u64) -> Self {
        Saturated {
            think,
            next_payload: 0,
        }
    }
}

impl Workload for Saturated {
    fn arrivals(&mut self, n: usize, _horizon: SimTime, _rng: &mut StdRng) -> Vec<Arrival> {
        (0..n as u32)
            .map(|i| {
                self.next_payload += 1;
                Arrival {
                    at: SimTime::from_ticks(1),
                    node: NodeId::new(i),
                    payload: self.next_payload,
                }
            })
            .collect()
    }

    fn on_release(&mut self, node: NodeId, at: SimTime, _rng: &mut StdRng) -> Option<Arrival> {
        self.next_payload += 1;
        Some(Arrival {
            at: at.saturating_add(self.think.max(1)),
            node,
            payload: self.next_payload,
        })
    }

    fn label(&self) -> String {
        format!("saturated(think={})", self.think)
    }
}

/// Hog-and-waiter adversary: `hog` requests every `gap` ticks for the whole
/// horizon; `waiter` requests exactly once at `waiter_at`. This is the
/// Theorem 3 fairness scenario — the interesting quantity is how many grants
/// go elsewhere while the waiter waits.
#[derive(Debug, Clone, Copy)]
pub struct HogAndWaiter {
    /// The continuously requesting node.
    pub hog: NodeId,
    /// Ticks between the hog's consecutive requests.
    pub gap: u64,
    /// The node that requests once.
    pub waiter: NodeId,
    /// When the waiter's single request fires.
    pub waiter_at: SimTime,
}

impl Workload for HogAndWaiter {
    fn arrivals(&mut self, _n: usize, horizon: SimTime, _rng: &mut StdRng) -> Vec<Arrival> {
        let mut out = Vec::new();
        let mut t = 1;
        let mut payload = 0;
        while t <= horizon.ticks() {
            payload += 1;
            out.push(Arrival {
                at: SimTime::from_ticks(t),
                node: self.hog,
                payload,
            });
            t += self.gap.max(1);
        }
        out.push(Arrival {
            at: self.waiter_at,
            node: self.waiter,
            payload: payload + 1,
        });
        out.sort_by_key(|a| a.at);
        out
    }

    fn label(&self) -> String {
        format!("hog({})+waiter({})", self.hog, self.waiter)
    }
}

/// A single request from one node — the worst-case-responsiveness probe.
#[derive(Debug, Clone, Copy)]
pub struct SingleShot {
    /// When the request fires.
    pub at: SimTime,
    /// The requesting node.
    pub node: NodeId,
}

impl SingleShot {
    /// Creates the single-shot workload.
    pub fn new(at: SimTime, node: NodeId) -> Self {
        SingleShot { at, node }
    }
}

impl Workload for SingleShot {
    fn arrivals(&mut self, n: usize, _horizon: SimTime, _rng: &mut StdRng) -> Vec<Arrival> {
        assert!(self.node.index() < n, "node outside ring");
        vec![Arrival {
            at: self.at,
            node: self.node,
            payload: 1,
        }]
    }

    fn label(&self) -> String {
        format!("single-shot({}@{})", self.node, self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_util::rng::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn global_poisson_rate_is_roughly_right() {
        let mut w = GlobalPoisson::new(10.0);
        let arrivals = w.arrivals(16, SimTime::from_ticks(100_000), &mut rng());
        // Expect ~10_000 arrivals; allow ±15%.
        assert!(
            (8_500..11_500).contains(&arrivals.len()),
            "got {}",
            arrivals.len()
        );
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(arrivals.iter().all(|a| a.node.index() < 16));
    }

    #[test]
    fn per_node_poisson_covers_all_nodes() {
        let mut w = PerNodePoisson::new(50.0);
        let arrivals = w.arrivals(8, SimTime::from_ticks(10_000), &mut rng());
        for node in 0..8 {
            assert!(
                arrivals.iter().any(|a| a.node.index() == node),
                "node {node} never requests"
            );
        }
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn bursty_stays_local() {
        let mut w = Bursty::new(100.0);
        let arrivals = w.arrivals(64, SimTime::from_ticks(10_000), &mut rng());
        assert!(!arrivals.is_empty());
        // Payloads are unique.
        let mut payloads: Vec<_> = arrivals.iter().map(|a| a.payload).collect();
        payloads.sort_unstable();
        payloads.dedup();
        assert_eq!(payloads.len(), arrivals.len());
    }

    #[test]
    fn saturated_closed_loop_rerequests() {
        let mut w = Saturated::new(3);
        let initial = w.arrivals(4, SimTime::from_ticks(100), &mut rng());
        assert_eq!(initial.len(), 4);
        let next = w
            .on_release(NodeId::new(2), SimTime::from_ticks(10), &mut rng())
            .unwrap();
        assert_eq!(next.node, NodeId::new(2));
        assert_eq!(next.at, SimTime::from_ticks(13));
    }

    #[test]
    fn single_shot_is_single() {
        let mut w = SingleShot::new(SimTime::from_ticks(7), NodeId::new(3));
        let arrivals = w.arrivals(8, SimTime::from_ticks(100), &mut rng());
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].at, SimTime::from_ticks(7));
        assert!(w
            .on_release(NodeId::new(3), SimTime::from_ticks(9), &mut rng())
            .is_none());
    }

    #[test]
    fn hog_and_waiter_schedule() {
        let mut w = HogAndWaiter {
            hog: NodeId::new(2),
            gap: 5,
            waiter: NodeId::new(6),
            waiter_at: SimTime::from_ticks(12),
        };
        let arrivals = w.arrivals(8, SimTime::from_ticks(20), &mut rng());
        // Hog at 1, 6, 11, 16 plus the waiter at 12, sorted by time.
        assert_eq!(arrivals.len(), 5);
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(
            arrivals.iter().filter(|a| a.node == NodeId::new(6)).count(),
            1
        );
    }

    #[test]
    fn labels_are_informative() {
        assert!(GlobalPoisson::new(10.0).label().contains("10"));
        assert!(Bursty::new(9.0).label().contains("bursty"));
        assert!(Saturated::new(1).label().contains("saturated"));
        assert!(SingleShot::new(SimTime::ZERO, NodeId::new(0))
            .label()
            .contains("single"));
        assert!(PerNodePoisson::new(3.0).label().contains("per-node"));
    }
}
