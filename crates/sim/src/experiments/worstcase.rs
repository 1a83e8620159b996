//! Lemmas 4/5 / Theorem 2: worst-case responsiveness — O(N) for the ring
//! and for the lazy linear search, O(log N) for System BinarySearch.
//!
//! For every requester position on an otherwise idle ring we fire one
//! request and record the waiting time; the per-N maximum is the worst case.

use atp_net::{NodeId, SimTime};

use crate::report::{f2, Table};
use crate::runner::{ExperimentSpec, Protocol};
use crate::stats::log2;
use crate::sweep::{run_points, PointSpec, WorkloadSpec};

/// Parameters of the worst-case sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Ring sizes to sweep.
    pub ns: Vec<usize>,
    /// Positions probed per ring size (evenly spread; `0` = all).
    pub positions: usize,
    /// Determinism seed.
    pub seed: u64,
}

impl Config {
    /// Full scale.
    pub fn paper() -> Self {
        Config {
            ns: vec![8, 16, 32, 64, 128, 256],
            positions: 16,
            seed: 13,
        }
    }

    /// A seconds-scale preset for tests.
    pub fn quick() -> Self {
        Config {
            ns: vec![8, 32],
            positions: 8,
            seed: 13,
        }
    }
}

/// One row of the worst-case table.
#[derive(Debug, Clone)]
pub struct Point {
    /// Ring size.
    pub n: usize,
    /// Worst observed waiting time, plain ring (Lemma 4: O(N)).
    pub ring_worst: u64,
    /// Worst observed waiting time, lazy linear search (Lemma 5: O(N)).
    pub search_worst: u64,
    /// Worst observed waiting time, System BinarySearch (Theorem 2).
    pub binary_worst: u64,
    /// Worst observed waiting time, Naimi–Tréhel path reversal (O(N)
    /// worst case along a degenerate chain, O(log N) on average).
    pub naimi_worst: u64,
    /// `log₂ n` reference.
    pub log2n: f64,
}

fn probe_specs(
    protocol: Protocol,
    n: usize,
    positions: usize,
    seed: u64,
    out: &mut Vec<PointSpec>,
) {
    let probes = if positions == 0 { n } else { positions.min(n) };
    for k in 0..probes {
        let node = NodeId::new(((k * n) / probes) as u32);
        // Measure the steady state: wait one full rotation so every node
        // carries a visit stamp, then vary the request phase relative to
        // the rotating token.
        let warm = 2 * n as u64;
        let at = SimTime::from_ticks(warm + 2 + (k as u64 * 7) % (n as u64));
        out.push(PointSpec::new(
            ExperimentSpec::new(protocol, n, at.ticks() + 8 * n as u64).with_seed(seed + k as u64),
            WorkloadSpec::single_shot(at, node),
        ));
    }
}

/// Computes the worst-case series.
///
/// Every (protocol, position) probe is one sweep point; the per-protocol
/// maximum over its probes is the worst case.
pub fn series(config: &Config) -> Vec<Point> {
    let mut points = Vec::new();
    for &n in &config.ns {
        for protocol in Protocol::ALL {
            probe_specs(protocol, n, config.positions, config.seed, &mut points);
        }
    }
    let summaries = run_points(&points);
    let worst = |chunk: &[crate::runner::RunSummary]| {
        chunk
            .iter()
            .map(|s| {
                assert_eq!(s.metrics.grants, 1);
                s.metrics.waiting.max
            })
            .max()
            .unwrap_or(0)
    };
    let mut offset = 0;
    config
        .ns
        .iter()
        .map(|&n| {
            let probes = if config.positions == 0 {
                n
            } else {
                config.positions.min(n)
            };
            let per_protocol: Vec<_> = (0..Protocol::ALL.len())
                .map(|i| worst(&summaries[offset + i * probes..offset + (i + 1) * probes]))
                .collect();
            offset += Protocol::ALL.len() * probes;
            Point {
                n,
                ring_worst: per_protocol[0],
                search_worst: per_protocol[1],
                binary_worst: per_protocol[2],
                naimi_worst: per_protocol[3],
                log2n: log2(n),
            }
        })
        .collect()
}

/// Runs the sweep and renders the table.
pub fn run(config: &Config) -> Table {
    let mut table = Table::new(vec![
        "n",
        "ring-worst",
        "search-worst",
        "binary-worst",
        "naimi-worst",
        "log2(n)",
    ])
    .title("Lemmas 4/5 / Theorem 2 — worst-case responsiveness (single request, idle ring)");
    for p in series(config) {
        table.row(vec![
            p.n.to_string(),
            p.ring_worst.to_string(),
            p.search_worst.to_string(),
            p.binary_worst.to_string(),
            p.naimi_worst.to_string(),
            f2(p.log2n),
        ]);
    }
    table.note("paper: ring and linear search grow linearly in N; binary stays O(log N)");
    table.note("naimi: a lone request on an idle tree reaches the root directly");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_linear_binary_is_logarithmic() {
        let points = series(&Config::quick());
        let small = &points[0]; // n = 8
        let large = &points[1]; // n = 32
                                // Ring worst case scales roughly with n.
        assert!(
            large.ring_worst >= 3 * small.ring_worst.max(1) / 2,
            "ring: {} → {}",
            small.ring_worst,
            large.ring_worst
        );
        // The lazy search is also linear (Lemma 5).
        assert!(
            large.search_worst >= 3 * small.search_worst.max(1) / 2,
            "search: {} → {}",
            small.search_worst,
            large.search_worst
        );
        // Binary stays within a small factor of log2(n).
        assert!(
            (large.binary_worst as f64) <= 4.0 * large.log2n,
            "binary worst {} vs log2 {}",
            large.binary_worst,
            large.log2n
        );
        assert!(large.binary_worst < large.ring_worst);
        assert!(large.binary_worst < large.search_worst);
    }

    #[test]
    fn table_renders() {
        let t = run(&Config::quick());
        assert_eq!(t.len(), 2);
    }
}
