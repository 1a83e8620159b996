//! Figure 10: average responsiveness under **decreasing load**, fixed N.
//!
//! The paper: *"Here we decrease the load and fix the number of processors
//! (n = 100). Using System Binary Search, the average responsiveness
//! approaches log n from below. For the regular ring algorithm the average
//! responsiveness approaches n/2 (= 50)."*

use crate::report::{f2, Table};
use crate::runner::{ExperimentSpec, Protocol, RunSummary};
use crate::stats::log2;
use crate::sweep::{run_points, PointSpec, WorkloadSpec};

/// Parameters of the Figure 10 sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Fixed ring size (the paper uses 100).
    pub n: usize,
    /// Mean inter-request gaps to sweep, smallest (heaviest load) first.
    pub gaps: Vec<f64>,
    /// Token rounds to simulate per point.
    pub rounds: u64,
    /// Determinism seed.
    pub seed: u64,
}

impl Config {
    /// The paper's scale: N = 100, load decreasing to near-idle.
    pub fn paper() -> Self {
        Config {
            n: 100,
            gaps: vec![1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0],
            rounds: 1000,
            seed: 10,
        }
    }

    /// A seconds-scale preset for tests.
    pub fn quick() -> Self {
        Config {
            n: 48,
            gaps: vec![2.0, 20.0, 200.0],
            rounds: 80,
            seed: 10,
        }
    }
}

/// One point of the Figure 10 series.
#[derive(Debug, Clone)]
pub struct Point {
    /// Mean inter-request gap (inverse load).
    pub gap: f64,
    /// Mean responsiveness of the plain ring.
    pub ring: f64,
    /// Mean responsiveness of System BinarySearch.
    pub binary: f64,
    /// Mean responsiveness of Naimi–Tréhel path reversal.
    pub naimi: f64,
}

/// The sweep's point list: three points (ring, binary, naimi) per load
/// level, in the order [`series_from`] expects them back.
pub fn points(config: &Config) -> Vec<PointSpec> {
    let horizon = config.rounds * config.n as u64;
    let mut points = Vec::with_capacity(3 * config.gaps.len());
    for &gap in &config.gaps {
        for protocol in [Protocol::Ring, Protocol::Binary, Protocol::Naimi] {
            points.push(PointSpec::new(
                ExperimentSpec::new(protocol, config.n, horizon).with_seed(config.seed),
                WorkloadSpec::global_poisson(gap),
            ));
        }
    }
    points
}

/// Reduces the summaries of a [`points`] sweep (in input order) to the
/// figure's series.
fn series_from(config: &Config, summaries: &[RunSummary]) -> Vec<Point> {
    config
        .gaps
        .iter()
        .zip(summaries.chunks_exact(3))
        .map(|(&gap, trio)| Point {
            gap,
            ring: trio[0].metrics.responsiveness.mean,
            binary: trio[1].metrics.responsiveness.mean,
            naimi: trio[2].metrics.responsiveness.mean,
        })
        .collect()
}

/// Computes the Figure 10 series, fanned out in one sweep.
pub fn series(config: &Config) -> Vec<Point> {
    series_from(config, &run_points(&points(config)))
}

/// Runs the sweep once, returning the rendered table together with the raw
/// per-point summaries (for `--metrics-out` style observability artifacts).
pub fn run_with_summaries(config: &Config) -> (Table, Vec<RunSummary>) {
    let summaries = run_points(&points(config));
    let mut table = Table::new(vec!["gap", "ring", "binary", "naimi"]).title(format!(
        "Figure 10 — avg responsiveness vs load, n = {} ({} rounds); log2(n) = {}, n/2 = {}",
        config.n,
        config.rounds,
        f2(log2(config.n)),
        config.n / 2
    ));
    for p in series_from(config, &summaries) {
        table.row(vec![f2(p.gap), f2(p.ring), f2(p.binary), f2(p.naimi)]);
    }
    table.note("paper: as load decreases, ring → n/2; binary → log2(n) from below; naimi stays logarithmic");
    (table, summaries)
}

/// Runs the sweep and renders the figure's data as a table.
pub fn run(config: &Config) -> Table {
    run_with_summaries(config).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let cfg = Config::quick();
        let points = series(&cfg);
        // Heaviest load first, lightest last.
        let lightest = points.last().unwrap();
        let heaviest = points.first().unwrap();
        // At light load, a lone request waits ~n/2 on the ring but only
        // ~log n with binary search.
        assert!(
            lightest.ring > cfg.n as f64 / 4.0,
            "ring at light load should approach n/2, got {}",
            lightest.ring
        );
        assert!(
            lightest.binary < lightest.ring / 2.0,
            "binary {} should decisively beat ring {}",
            lightest.binary,
            lightest.ring
        );
        // Path reversal routes a lone request straight at the holder — at
        // light load it must beat the ring's n/2 wait decisively too.
        assert!(
            lightest.naimi < lightest.ring / 2.0,
            "naimi {} should decisively beat ring {}",
            lightest.naimi,
            lightest.ring
        );
        // At saturation both protocols are busy and grants are frequent, so
        // responsiveness is far below the light-load ring value.
        assert!(heaviest.ring < lightest.ring);
    }

    #[test]
    fn table_renders() {
        let t = run(&Config::quick());
        assert_eq!(t.len(), 3);
        assert!(t.render().contains("Figure 10"));
    }
}
