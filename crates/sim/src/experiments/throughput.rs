//! Throughput under saturation — the introduction's claim that *"ring-based
//! protocols maximize throughput in busy systems"* and that the adaptive
//! scheme preserves it.
//!
//! Every node always wants the token (closed loop, re-request on release).
//! Throughput is grants per tick; with zero service time and unit delays the
//! ideal is one grant per message delay (the token is never idle).

use crate::report::{f2, Table};
use crate::runner::{ExperimentSpec, Protocol};
use crate::sweep::{run_points, PointSpec, WorkloadSpec};

/// Parameters of the throughput sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Ring sizes to sweep.
    pub ns: Vec<usize>,
    /// Ticks a node computes between release and its next request.
    pub think: u64,
    /// Simulated ticks per point.
    pub horizon: u64,
    /// Determinism seed.
    pub seed: u64,
}

impl Config {
    /// Full scale.
    pub fn paper() -> Self {
        Config {
            ns: vec![8, 32, 128],
            think: 1,
            horizon: 50_000,
            seed: 17,
        }
    }

    /// A seconds-scale preset for tests.
    pub fn quick() -> Self {
        Config {
            ns: vec![8, 32],
            think: 1,
            horizon: 4_000,
            seed: 17,
        }
    }
}

/// One row of the throughput table.
#[derive(Debug, Clone)]
pub struct Point {
    /// Ring size.
    pub n: usize,
    /// Protocol measured.
    pub protocol: Protocol,
    /// Grants per 1000 ticks.
    pub grants_per_kilotick: f64,
    /// Token messages per grant (protocol overhead).
    pub token_msgs_per_grant: f64,
    /// Control messages per grant.
    pub control_msgs_per_grant: f64,
}

/// Computes the throughput table — one sweep point per (n, protocol).
pub fn series(config: &Config) -> Vec<Point> {
    let mut points = Vec::with_capacity(config.ns.len() * Protocol::ALL.len());
    let mut keys = Vec::with_capacity(points.capacity());
    for &n in &config.ns {
        for protocol in Protocol::ALL {
            keys.push((n, protocol));
            points.push(PointSpec::new(
                ExperimentSpec::new(protocol, n, config.horizon).with_seed(config.seed),
                WorkloadSpec::Saturated {
                    think: config.think,
                },
            ));
        }
    }
    keys.into_iter()
        .zip(run_points(&points))
        .map(|((n, protocol), s)| {
            let grants = s.metrics.grants.max(1) as f64;
            Point {
                n,
                protocol,
                grants_per_kilotick: 1000.0 * grants / s.duration_ticks.max(1) as f64,
                token_msgs_per_grant: s.net.token_sent as f64 / grants,
                control_msgs_per_grant: s.net.control_sent as f64 / grants,
            }
        })
        .collect()
}

/// Runs the sweep and renders the table.
pub fn run(config: &Config) -> Table {
    let mut table = Table::new(vec![
        "n",
        "protocol",
        "grants/ktick",
        "token-msg/grant",
        "ctrl-msg/grant",
    ])
    .title(format!(
        "Throughput under saturation (think = {} tick)",
        config.think
    ));
    for p in series(config) {
        table.row(vec![
            p.n.to_string(),
            p.protocol.label().to_string(),
            f2(p.grants_per_kilotick),
            f2(p.token_msgs_per_grant),
            f2(p.control_msgs_per_grant),
        ]);
    }
    table.note("ideal is 1000 grants/ktick: zero service time, one hop per grant");
    table.note("binary must match ring throughput when busy (the paper's 'best of both')");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_matches_ring_throughput_when_saturated() {
        let points = series(&Config::quick());
        for &n in &Config::quick().ns {
            let of = |p: Protocol| {
                points
                    .iter()
                    .find(|x| x.n == n && x.protocol == p)
                    .unwrap()
                    .grants_per_kilotick
            };
            let ring = of(Protocol::Ring);
            let binary = of(Protocol::Binary);
            assert!(
                binary > 0.7 * ring,
                "n={n}: binary throughput {binary} far below ring {ring}"
            );
            assert!(ring > 200.0, "n={n}: ring should be near-ideal, got {ring}");
        }
    }

    #[test]
    fn overhead_per_grant_is_constant_for_ring() {
        let points = series(&Config::quick());
        for p in &points {
            if p.protocol == Protocol::Ring {
                assert!(
                    p.token_msgs_per_grant < 4.0,
                    "ring token messages per grant should be O(1) when saturated, got {}",
                    p.token_msgs_per_grant
                );
            }
        }
    }

    #[test]
    fn table_renders() {
        let t = run(&Config::quick());
        assert_eq!(t.len(), 2 * Protocol::ALL.len());
    }
}
