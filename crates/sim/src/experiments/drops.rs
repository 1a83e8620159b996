//! Cheap-message loss sweep: Section 1 claims *"the system remains correct
//! even if no 'cheap' message is ever sent"* — losses may only cost
//! performance.
//!
//! We run the Figure 9 workload on System BinarySearch while dropping an
//! increasing fraction of control messages. Every request must still be
//! served (safety/liveness via the reliable rotation); responsiveness should
//! degrade from ≈log N toward the plain ring's value as searches vanish.

use crate::report::{f2, Table};
use crate::runner::{ExperimentSpec, NetProfile, Protocol};
use crate::sweep::{run_points, PointSpec, WorkloadSpec};

/// Parameters of the loss sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Ring size.
    pub n: usize,
    /// Mean inter-request gap.
    pub mean_gap: f64,
    /// Drop probabilities to sweep.
    pub drop_ps: Vec<f64>,
    /// Token rounds to simulate.
    pub rounds: u64,
    /// Determinism seed.
    pub seed: u64,
}

impl Config {
    /// Full scale.
    pub fn paper() -> Self {
        Config {
            n: 64,
            mean_gap: 10.0,
            drop_ps: vec![0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0],
            rounds: 1000,
            seed: 16,
        }
    }

    /// A seconds-scale preset for tests.
    pub fn quick() -> Self {
        Config {
            n: 16,
            mean_gap: 10.0,
            drop_ps: vec![0.0, 0.5, 1.0],
            rounds: 60,
            seed: 16,
        }
    }
}

/// One point of the loss sweep.
#[derive(Debug, Clone)]
pub struct Point {
    /// Control-message drop probability.
    pub drop_p: f64,
    /// Mean responsiveness of System BinarySearch under this loss rate.
    pub binary: f64,
    /// Requests that went unserved (must be 0 — losses never break safety).
    pub unserved: usize,
    /// Control messages actually dropped.
    pub dropped: u64,
}

/// Computes the loss-sweep series — one sweep point per drop probability.
pub fn series(config: &Config) -> Vec<Point> {
    let horizon = config.rounds * config.n as u64;
    let points: Vec<PointSpec> = config
        .drop_ps
        .iter()
        .map(|&p| {
            PointSpec::new(
                ExperimentSpec::new(Protocol::Binary, config.n, horizon)
                    .with_seed(config.seed)
                    .with_net(NetProfile::unit().control_drops(p)),
                WorkloadSpec::global_poisson(config.mean_gap),
            )
        })
        .collect();
    config
        .drop_ps
        .iter()
        .zip(run_points(&points))
        .map(|(&p, s)| Point {
            drop_p: p,
            binary: s.metrics.responsiveness.mean,
            unserved: s.metrics.unserved,
            dropped: s.net.control_dropped,
        })
        .collect()
}

/// Runs the sweep and renders the table.
pub fn run(config: &Config) -> Table {
    let mut table =
        Table::new(vec!["drop-p", "binary-resp", "unserved", "dropped"]).title(format!(
            "Cheap-message loss — BinarySearch, n = {}, gap = {}",
            config.n, config.mean_gap
        ));
    for p in series(config) {
        table.row(vec![
            f2(p.drop_p),
            f2(p.binary),
            p.unserved.to_string(),
            p.dropped.to_string(),
        ]);
    }
    table.note("losses cost responsiveness only; liveness rides on the reliable rotation");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn losses_never_cost_liveness() {
        let points = series(&Config::quick());
        for p in &points {
            assert_eq!(p.unserved, 0, "drop_p {}: requests went unserved", p.drop_p);
        }
    }

    #[test]
    fn full_loss_degrades_toward_ring() {
        let points = series(&Config::quick());
        let lossless = points.first().unwrap();
        let total = points.last().unwrap();
        assert_eq!(total.drop_p, 1.0);
        assert!(total.dropped > 0);
        assert!(
            total.binary >= lossless.binary,
            "losing all searches should not improve responsiveness"
        );
    }

    #[test]
    fn table_renders() {
        let t = run(&Config::quick());
        assert_eq!(t.len(), 3);
    }
}
