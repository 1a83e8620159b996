//! Figure 9: average responsiveness under **fixed load**, varying N.
//!
//! The paper: *"the load is fixed so that on average, every 10 time units,
//! one of the nodes in the system makes a request. The curves show, that
//! using a regular ring algorithm, the average responsiveness approaches 10
//! … Using System Binary Search, the average responsiveness is bounded by
//! log n."* Each simulation ran 1000 token rounds.

use crate::report::{f2, Table};
use crate::runner::{ExperimentSpec, Protocol, RunSummary};
use crate::stats::log2;
use crate::sweep::{run_points, PointSpec, WorkloadSpec};

/// Parameters of the Figure 9 sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Ring sizes to sweep.
    pub ns: Vec<usize>,
    /// Mean system-wide inter-request gap (the paper uses 10).
    pub mean_gap: f64,
    /// Token rounds to simulate per point (the paper uses ≥ 1000).
    pub rounds: u64,
    /// Determinism seed.
    pub seed: u64,
}

impl Config {
    /// The paper's scale: N up to 256, gap 10, 1000 rounds.
    pub fn paper() -> Self {
        Config {
            ns: vec![8, 16, 32, 64, 128, 256],
            mean_gap: 10.0,
            rounds: 1000,
            seed: 9,
        }
    }

    /// A seconds-scale preset for tests.
    pub fn quick() -> Self {
        Config {
            ns: vec![8, 16, 32],
            mean_gap: 10.0,
            rounds: 60,
            seed: 9,
        }
    }
}

/// One point of the Figure 9 series.
#[derive(Debug, Clone)]
pub struct Point {
    /// Ring size.
    pub n: usize,
    /// Mean responsiveness of the plain ring.
    pub ring: f64,
    /// Mean responsiveness of System BinarySearch.
    pub binary: f64,
    /// Mean responsiveness of Naimi–Tréhel path reversal.
    pub naimi: f64,
    /// Average request-forwarding hops per grant under path reversal —
    /// the quantity Lavault's analysis bounds by O(log N).
    pub naimi_hops: f64,
    /// The `log₂ n` reference the paper's curve is bounded by.
    pub log2n: f64,
}

/// The sweep's point list: three points (ring, binary, naimi) per ring
/// size, in the order [`series_from`] expects them back.
pub fn points(config: &Config) -> Vec<PointSpec> {
    let mut points = Vec::with_capacity(3 * config.ns.len());
    for &n in &config.ns {
        let horizon = config.rounds * n as u64;
        for protocol in [Protocol::Ring, Protocol::Binary, Protocol::Naimi] {
            points.push(PointSpec::new(
                ExperimentSpec::new(protocol, n, horizon).with_seed(config.seed),
                WorkloadSpec::global_poisson(config.mean_gap),
            ));
        }
    }
    points
}

/// Reduces the summaries of a [`points`] sweep (in input order) to the
/// figure's series.
fn series_from(config: &Config, summaries: &[RunSummary]) -> Vec<Point> {
    config
        .ns
        .iter()
        .zip(summaries.chunks_exact(3))
        .map(|(&n, trio)| {
            let naimi = &trio[2];
            let grants = naimi.metrics.grants.max(1);
            Point {
                n,
                ring: trio[0].metrics.responsiveness.mean,
                binary: trio[1].metrics.responsiveness.mean,
                naimi: naimi.metrics.responsiveness.mean,
                naimi_hops: naimi.spans.search_msgs as f64 / grants as f64,
                log2n: log2(n),
            }
        })
        .collect()
}

/// Computes the Figure 9 series, fanned out in one sweep.
pub fn series(config: &Config) -> Vec<Point> {
    series_from(config, &run_points(&points(config)))
}

/// Runs the sweep once, returning the rendered table together with the raw
/// per-point summaries (for `--metrics-out` style observability artifacts).
pub fn run_with_summaries(config: &Config) -> (Table, Vec<RunSummary>) {
    let summaries = run_points(&points(config));
    let mut table = Table::new(vec![
        "n",
        "ring",
        "binary",
        "naimi",
        "log2(n)",
        "naimi-hops",
        "gap",
    ])
    .title(format!(
        "Figure 9 — avg responsiveness, fixed load (one request per ~{} ticks, {} rounds)",
        config.mean_gap, config.rounds
    ));
    for p in series_from(config, &summaries) {
        table.row(vec![
            p.n.to_string(),
            f2(p.ring),
            f2(p.binary),
            f2(p.naimi),
            f2(p.log2n),
            f2(p.naimi_hops),
            f2(config.mean_gap),
        ]);
    }
    table.note("paper: ring → gap (≈10); binary bounded by log2(n); naimi hops O(log n) avg");
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
        let points = series(&Config::quick());
        assert_eq!(points.len(), 3);
        for p in &points {
            // Binary stays within a small factor of log2(n)…
            assert!(
                p.binary <= 2.5 * p.log2n + 2.0,
                "n={}: binary {} vs log2 {}",
                p.n,
                p.binary,
                p.log2n
            );
            // …and Naimi's average request path sits in the same
            // logarithmic envelope (Lavault's average-case bound).
            assert!(
                p.naimi_hops <= 2.5 * p.log2n + 2.0,
                "n={}: naimi hops {} vs log2 {}",
                p.n,
                p.naimi_hops,
                p.log2n
            );
        }
        // …and the ring approaches the request gap while binary beats it at
        // larger n (the crossover the paper plots).
        let last = points.last().unwrap();
        assert!(
            last.binary < last.ring,
            "binary {} should beat ring {} at n={}",
            last.binary,
            last.ring,
            last.n
        );
        assert!(
            (4.0..18.0).contains(&last.ring),
            "ring should hover near the gap, got {}",
            last.ring
        );
    }

    #[test]
    fn table_renders_all_rows() {
        let t = run(&Config::quick());
        assert_eq!(t.len(), 3);
        assert!(t.render().contains("Figure 9"));
    }
}
