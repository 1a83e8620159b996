//! Robustness to latency jitter: the paper's performance model assumes
//! "bounded delays"; this table checks that the log N vs N separation
//! survives when message delays are drawn from wider and wider uniform
//! distributions instead of the unit-delay idealization.

use crate::report::{f2, Table};
use crate::runner::{ExperimentSpec, NetProfile, Protocol};
use crate::sweep::{run_points, PointSpec, WorkloadSpec};

/// Parameters of the jitter sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Ring size.
    pub n: usize,
    /// Mean inter-request gap, scaled by mean delay per point.
    pub mean_gap: f64,
    /// Latency bounds `(lo, hi)` to sweep.
    pub latencies: Vec<(u64, u64)>,
    /// Token rounds per point (at mean delay 1).
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
            latencies: vec![(1, 1), (1, 3), (1, 7), (2, 14), (4, 28)],
            rounds: 500,
            seed: 18,
        }
    }

    /// A seconds-scale preset for tests.
    pub fn quick() -> Self {
        Config {
            n: 24,
            mean_gap: 10.0,
            latencies: vec![(1, 1), (1, 7)],
            rounds: 60,
            seed: 18,
        }
    }
}

/// One row of the jitter table.
#[derive(Debug, Clone)]
pub struct Point {
    /// Latency bounds.
    pub latency: (u64, u64),
    /// Mean delay of the distribution.
    pub mean_delay: f64,
    /// Ring mean responsiveness, in units of the mean delay.
    pub ring_normalized: f64,
    /// Binary mean responsiveness, in units of the mean delay.
    pub binary_normalized: f64,
}

/// Computes the jitter series — two sweep points (ring, binary) per
/// latency distribution.
pub fn series(config: &Config) -> Vec<Point> {
    let mut points = Vec::with_capacity(2 * config.latencies.len());
    for &(lo, hi) in &config.latencies {
        let mean_delay = (lo + hi) as f64 / 2.0;
        // Scale the horizon and the request gap with the mean delay so
        // the *relative* load stays constant across points.
        let horizon = (config.rounds as f64 * config.n as f64 * mean_delay) as u64;
        let gap = config.mean_gap * mean_delay;
        for protocol in [Protocol::Ring, Protocol::Binary] {
            points.push(PointSpec::new(
                ExperimentSpec::new(protocol, config.n, horizon)
                    .with_seed(config.seed)
                    .with_net(NetProfile::unit().latency(lo, hi)),
                WorkloadSpec::global_poisson(gap),
            ));
        }
    }
    let summaries = run_points(&points);
    config
        .latencies
        .iter()
        .zip(summaries.chunks_exact(2))
        .map(|(&(lo, hi), pair)| {
            let mean_delay = (lo + hi) as f64 / 2.0;
            Point {
                latency: (lo, hi),
                mean_delay,
                ring_normalized: pair[0].metrics.responsiveness.mean / mean_delay,
                binary_normalized: pair[1].metrics.responsiveness.mean / mean_delay,
            }
        })
        .collect()
}

/// Runs the sweep and renders the table.
pub fn run(config: &Config) -> Table {
    let mut table =
        Table::new(vec!["latency", "mean-delay", "ring/delay", "binary/delay"]).title(format!(
            "Latency-jitter robustness, n = {}, relative gap = {}",
            config.n, config.mean_gap
        ));
    for p in series(config) {
        table.row(vec![
            format!("U({},{})", p.latency.0, p.latency.1),
            f2(p.mean_delay),
            f2(p.ring_normalized),
            f2(p.binary_normalized),
        ]);
    }
    table.note("responsiveness normalized by the mean delay: the shape must survive jitter");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separation_survives_jitter() {
        let points = series(&Config::quick());
        for p in &points {
            assert!(
                p.binary_normalized < p.ring_normalized,
                "under U{:?} binary {} should still beat ring {}",
                p.latency,
                p.binary_normalized,
                p.ring_normalized
            );
        }
        // Normalized numbers stay in the same ballpark across jitter levels.
        let base = &points[0];
        let jittered = points.last().unwrap();
        assert!(
            jittered.binary_normalized < 3.0 * base.binary_normalized + 3.0,
            "binary degraded superlinearly under jitter: {} vs {}",
            jittered.binary_normalized,
            base.binary_normalized
        );
    }

    #[test]
    fn table_renders() {
        let t = run(&Config::quick());
        assert_eq!(t.len(), 2);
    }
}
