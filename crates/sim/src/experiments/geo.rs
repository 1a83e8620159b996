//! Geographic (distance-proportional) link costs — probing the paper's
//! uniform-delay assumption.
//!
//! The paper charges every message one unit regardless of distance; on a
//! physical ring embedding, the binary search's "directly across the ring"
//! jumps would cost ~N/2 units while rotation hops cost 1. This experiment
//! re-runs the Figure 9 comparison with per-link delay `1 + ⌈distance/k⌉`
//! and reports where the crossover moves: binary's *message count* stays
//! logarithmic, but its *time* advantage shrinks as links get more
//! distance-sensitive — and at k ≈ 2 (an across-ring hop costing ~N/4
//! rotation hops) the ring catches up, showing the paper's unit-cost
//! assumption is load-bearing for the time bound.

use crate::report::{f2, Table};
use crate::runner::{ExperimentSpec, NetProfile, Protocol};
use crate::sweep::{run_points, PointSpec, WorkloadSpec};
use atp_net::{NodeId, PerLinkLatency, Topology};

/// Parameters of the geographic sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Ring size.
    pub n: usize,
    /// Mean inter-request gap.
    pub mean_gap: f64,
    /// Distance divisors `k` to sweep: delay = `1 + ceil(distance / k)`.
    /// Larger `k` ⇒ flatter costs (k = ∞ is the paper's unit-delay model).
    pub distance_divisors: Vec<u64>,
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
            distance_divisors: vec![0, 32, 8, 2],
            rounds: 300,
            seed: 19,
        }
    }

    /// A seconds-scale preset for tests.
    pub fn quick() -> Self {
        Config {
            n: 24,
            mean_gap: 10.0,
            distance_divisors: vec![0, 4],
            rounds: 50,
            seed: 19,
        }
    }
}

/// Builds the distance-proportional latency matrix. `divisor == 0` means
/// flat unit delay (the paper's model).
pub fn geo_latency(n: usize, divisor: u64) -> PerLinkLatency {
    let topology = Topology::ring(n);
    PerLinkLatency::from_fn(n, move |a: NodeId, b: NodeId| {
        if divisor == 0 {
            1
        } else {
            1 + topology.distance(a, b).div_ceil(divisor)
        }
    })
}

/// One row of the geographic table.
#[derive(Debug, Clone)]
pub struct Point {
    /// Distance divisor (0 = flat).
    pub divisor: u64,
    /// Ring mean responsiveness (ticks).
    pub ring: f64,
    /// Binary mean responsiveness (ticks).
    pub binary: f64,
}

/// Computes the geographic series — two sweep points (ring, binary) per
/// distance divisor, each carrying its own latency matrix.
pub fn series(config: &Config) -> Vec<Point> {
    let horizon = config.rounds * config.n as u64;
    let mut points = Vec::with_capacity(2 * config.distance_divisors.len());
    for &divisor in &config.distance_divisors {
        for protocol in [Protocol::Ring, Protocol::Binary] {
            points.push(PointSpec::new(
                ExperimentSpec::new(protocol, config.n, horizon)
                    .with_seed(config.seed)
                    .with_net(NetProfile::unit().latency_matrix(geo_latency(config.n, divisor))),
                WorkloadSpec::global_poisson(config.mean_gap),
            ));
        }
    }
    let summaries = run_points(&points);
    config
        .distance_divisors
        .iter()
        .zip(summaries.chunks_exact(2))
        .map(|(&divisor, pair)| Point {
            divisor,
            ring: pair[0].metrics.responsiveness.mean,
            binary: pair[1].metrics.responsiveness.mean,
        })
        .collect()
}

/// Runs the sweep and renders the table.
pub fn run(config: &Config) -> Table {
    let mut table = Table::new(vec!["distance/k", "ring", "binary", "binary/ring"]).title(format!(
        "Geographic link costs (delay = 1 + ⌈d/k⌉), n = {}, gap = {}",
        config.n, config.mean_gap
    ));
    for p in series(config) {
        let label = if p.divisor == 0 {
            "flat".to_string()
        } else {
            format!("k={}", p.divisor)
        };
        table.row(vec![
            label,
            f2(p.ring),
            f2(p.binary),
            f2(p.binary / p.ring.max(1e-9)),
        ]);
    }
    table.note("the paper's unit-delay assumption is the 'flat' row;");
    table.note("distance pricing shrinks binary's advantage and erases it near k=2,");
    table.note("where an across-ring hop costs ~N/4 rotation hops — the unit-cost");
    table.note("assumption is load-bearing for the O(log N) *time* claim");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_row_matches_unit_delay_expectations() {
        let cfg = Config::quick();
        let points = series(&cfg);
        let flat = &points[0];
        assert_eq!(flat.divisor, 0);
        assert!(
            flat.binary < flat.ring,
            "flat: binary {} should beat ring {}",
            flat.binary,
            flat.ring
        );
    }

    #[test]
    fn distance_pricing_raises_both_but_keeps_order() {
        let cfg = Config::quick();
        let points = series(&cfg);
        let flat = &points[0];
        let priced = &points[1];
        assert!(priced.ring >= flat.ring * 0.8);
        assert!(
            priced.binary < priced.ring * 1.2,
            "binary should stay competitive: {} vs {}",
            priced.binary,
            priced.ring
        );
    }

    #[test]
    fn geo_latency_matrix_is_symmetric_and_positive() {
        let m = geo_latency(8, 2);
        for a in 0..8u32 {
            for b in 0..8u32 {
                let ab = m.link(NodeId::new(a), NodeId::new(b));
                let ba = m.link(NodeId::new(b), NodeId::new(a));
                assert_eq!(ab, ba);
                assert!(ab >= 1);
            }
        }
        assert_eq!(m.link(NodeId::new(0), NodeId::new(4)), 3); // 1 + 4/2
    }

    #[test]
    fn table_renders() {
        let t = run(&Config::quick());
        assert_eq!(t.len(), 2);
    }
}
