//! Deterministic parallel sweep executor.
//!
//! The paper's evaluation (Section 4.3, Figures 9–10) — and every table this
//! repository adds around it — is a grid of *independent* simulation runs,
//! one per (protocol, N, load, seed) point. This module is the single fan-out
//! layer all experiments go through: a sweep is a flat `Vec<PointSpec>`, and
//! [`run_points`] maps [`PointSpec::run`] over it on
//! [`atp_util::pool::par_map`].
//!
//! **Determinism contract:** every point carries its own seed inside its
//! [`ExperimentSpec`] and builds its own workload from a [`WorkloadSpec`], so
//! no state is shared between points. Results come back in input order.
//! Consequently the rendered tables and `RunSummary::to_json` strings are
//! byte-identical whether `ATP_THREADS=1` or `ATP_THREADS=64` — the e2e
//! tests in `tests/determinism_e2e.rs` assert exactly that.
//!
//! Thread count comes from `ATP_THREADS` (default: all available cores); see
//! [`atp_util::pool`] for the resolution rules and the scoped
//! [`atp_util::pool::with_threads`] override.

use atp_net::{NodeId, SimTime};
use atp_util::pool;

use crate::runner::{run_experiment, ExperimentSpec, RunSummary};
use crate::workload::{
    GlobalPoisson, HogAndWaiter, PerNodePoisson, Saturated, SingleShot, Workload,
};

/// A buildable description of a request-arrival process.
///
/// [`crate::workload`] generators are stateful `&mut` objects, so a parallel
/// sweep cannot share one across points; instead each point carries this
/// plain-data spec and builds a fresh generator at run time. All generator
/// parameters are part of the spec, which keeps a `PointSpec` `Send + Sync`
/// and makes the sweep a pure function of its inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec {
    /// System-wide Poisson arrivals ([`GlobalPoisson`]).
    GlobalPoisson {
        /// Mean ticks between consecutive requests, system-wide.
        mean_gap: f64,
    },
    /// Independent per-node Poisson arrivals ([`PerNodePoisson`]).
    PerNodePoisson {
        /// Mean ticks between requests at each node.
        mean_gap: f64,
    },
    /// Closed-loop saturation ([`Saturated`]).
    Saturated {
        /// Ticks between a release and the node's next request.
        think: u64,
    },
    /// One request from one node ([`SingleShot`]).
    SingleShot {
        /// When the request fires.
        at: SimTime,
        /// The requesting node.
        node: NodeId,
    },
    /// The Theorem 3 fairness adversary ([`HogAndWaiter`]).
    HogAndWaiter {
        /// The continuously requesting node.
        hog: NodeId,
        /// Ticks between the hog's requests.
        gap: u64,
        /// The node that requests once.
        waiter: NodeId,
        /// When the waiter's request fires.
        waiter_at: SimTime,
    },
}

impl WorkloadSpec {
    /// Shorthand for [`WorkloadSpec::GlobalPoisson`].
    pub fn global_poisson(mean_gap: f64) -> Self {
        WorkloadSpec::GlobalPoisson { mean_gap }
    }

    /// Shorthand for [`WorkloadSpec::SingleShot`].
    pub fn single_shot(at: SimTime, node: NodeId) -> Self {
        WorkloadSpec::SingleShot { at, node }
    }

    /// Builds a fresh workload generator for one run.
    pub fn build(&self) -> Box<dyn Workload> {
        match *self {
            WorkloadSpec::GlobalPoisson { mean_gap } => Box::new(GlobalPoisson::new(mean_gap)),
            WorkloadSpec::PerNodePoisson { mean_gap } => Box::new(PerNodePoisson::new(mean_gap)),
            WorkloadSpec::Saturated { think } => Box::new(Saturated::new(think)),
            WorkloadSpec::SingleShot { at, node } => Box::new(SingleShot::new(at, node)),
            WorkloadSpec::HogAndWaiter {
                hog,
                gap,
                waiter,
                waiter_at,
            } => Box::new(HogAndWaiter {
                hog,
                gap,
                waiter,
                waiter_at,
            }),
        }
    }
}

/// One self-contained point of a sweep: the experiment parameters
/// (including the seed and the network profile), plus the workload to
/// build. Everything network-side — latency bounds, per-link matrices,
/// faults, grace — lives in `spec.net`, the same [`crate::runner::NetProfile`]
/// the runner consumes, so points cannot drift from the runner's knobs.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Experiment parameters; `spec.seed` makes the point self-seeding.
    pub spec: ExperimentSpec,
    /// The arrival process to build for this run.
    pub workload: WorkloadSpec,
}

impl PointSpec {
    /// A point with the spec's own network profile.
    pub fn new(spec: ExperimentSpec, workload: WorkloadSpec) -> Self {
        PointSpec { spec, workload }
    }

    /// Runs this point to completion. Pure function of `self`.
    pub fn run(&self) -> RunSummary {
        let mut wl = self.workload.build();
        run_experiment(&self.spec, wl.as_mut())
    }
}

/// Runs every point of the sweep, fanned out over the thread pool, and
/// returns the summaries **in input order** — byte-identical at any thread
/// count.
pub fn run_points(points: &[PointSpec]) -> Vec<RunSummary> {
    pool::par_map(points, PointSpec::run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{NetProfile, Protocol};
    use atp_net::PerLinkLatency;

    fn sample_points() -> Vec<PointSpec> {
        let mut points = Vec::new();
        for protocol in Protocol::ALL {
            points.push(PointSpec::new(
                ExperimentSpec::new(protocol, 12, 1_500).with_seed(3),
                WorkloadSpec::global_poisson(9.0),
            ));
        }
        points.push(PointSpec::new(
            ExperimentSpec::new(Protocol::Binary, 8, 400).with_seed(4),
            WorkloadSpec::single_shot(SimTime::from_ticks(5), NodeId::new(6)),
        ));
        points.push(PointSpec::new(
            ExperimentSpec::new(Protocol::Binary, 8, 600).with_seed(5),
            WorkloadSpec::Saturated { think: 2 },
        ));
        points
    }

    #[test]
    fn parallel_matches_serial_byte_for_byte() {
        let points = sample_points();
        let json = |threads: usize| {
            pool::with_threads(threads, || {
                run_points(&points)
                    .iter()
                    .map(RunSummary::to_json)
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(json(1), json(4));
    }

    #[test]
    fn results_are_input_ordered() {
        let points = sample_points();
        let summaries = pool::with_threads(4, || run_points(&points));
        assert_eq!(summaries.len(), points.len());
        for (p, s) in points.iter().zip(&summaries) {
            assert_eq!(p.spec.protocol, s.protocol, "summary out of order");
            assert_eq!(p.workload.build().label(), s.workload);
        }
    }

    #[test]
    fn workload_specs_build_matching_generators() {
        let n = 8;
        let horizon = SimTime::from_ticks(500);
        use atp_util::rng::{SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(11);
        for spec in [
            WorkloadSpec::global_poisson(5.0),
            WorkloadSpec::PerNodePoisson { mean_gap: 40.0 },
            WorkloadSpec::Saturated { think: 1 },
            WorkloadSpec::single_shot(SimTime::from_ticks(3), NodeId::new(2)),
            WorkloadSpec::HogAndWaiter {
                hog: NodeId::new(0),
                gap: 3,
                waiter: NodeId::new(4),
                waiter_at: SimTime::from_ticks(100),
            },
        ] {
            let mut wl = spec.build();
            assert!(
                !wl.arrivals(n, horizon, &mut rng).is_empty(),
                "{}: no arrivals",
                wl.label()
            );
        }
    }

    #[test]
    fn latency_matrix_override_changes_the_run() {
        let spec = ExperimentSpec::new(Protocol::Binary, 8, 800).with_seed(6);
        let flat = PointSpec::new(spec.clone(), WorkloadSpec::global_poisson(10.0));
        let matrix = PerLinkLatency::from_fn(8, |a, b| 1 + (a.index().abs_diff(b.index())) as u64);
        let priced = PointSpec::new(
            spec.with_net(NetProfile::unit().latency_matrix(matrix)),
            WorkloadSpec::global_poisson(10.0),
        );
        assert_ne!(flat.run().to_json(), priced.run().to_json());
    }
}
