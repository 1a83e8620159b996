//! Lemma 6: *"In System BinarySearch each token request is forwarded
//! O(log N) times for N nodes."*
//!
//! A single requester probes an otherwise idle system; we count the cheap
//! search messages it costs until the grant, averaged over requester
//! positions. BinarySearch's delegated search should track `log₂ N`; the
//! linear search of System Search pays O(N).

use atp_core::ProtocolConfig;
use atp_net::{NodeId, SimTime};

use crate::report::{f2, Table};
use crate::runner::{ExperimentSpec, Protocol};
use crate::stats::log2;
use crate::sweep::{run_points, PointSpec, WorkloadSpec};

/// Parameters of the message-complexity sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Ring sizes to sweep.
    pub ns: Vec<usize>,
    /// Requester positions sampled per ring size.
    pub trials: usize,
    /// Determinism seed.
    pub seed: u64,
}

impl Config {
    /// Full scale: N up to 512.
    pub fn paper() -> Self {
        Config {
            ns: vec![8, 16, 32, 64, 128, 256, 512],
            trials: 8,
            seed: 11,
        }
    }

    /// A seconds-scale preset for tests.
    pub fn quick() -> Self {
        Config {
            ns: vec![16, 64],
            trials: 4,
            seed: 11,
        }
    }
}

/// One row of the message-complexity table.
#[derive(Debug, Clone)]
pub struct Point {
    /// Ring size.
    pub n: usize,
    /// Mean search messages per request, delegated search.
    pub delegated: f64,
    /// Mean search messages per request, linear search (System Search).
    pub linear: f64,
    /// `log₂ n` reference.
    pub log2n: f64,
}

/// One probe of `trials` for a given protocol: single shot from a
/// requester spread around the ring.
fn probe_specs(protocol: Protocol, n: usize, trials: usize, seed: u64, out: &mut Vec<PointSpec>) {
    for t in 0..trials {
        // Spread requesters and request times around the ring.
        let node = NodeId::new(((t * n) / trials) as u32);
        let at = SimTime::from_ticks(3 + 2 * t as u64);
        out.push(PointSpec::new(
            ExperimentSpec::new(protocol, n, at.ticks() + 8 * n as u64)
                .with_cfg(ProtocolConfig::default().with_record_log(false))
                .with_seed(seed + t as u64),
            WorkloadSpec::single_shot(at, node),
        ));
    }
}

/// Computes the message-complexity series.
///
/// Two protocols × `trials` probes per ring size, all fanned out in one
/// sweep; the mean over each protocol's probes becomes the table cell.
pub fn series(config: &Config) -> Vec<Point> {
    let protocols = [Protocol::Binary, Protocol::Search];
    let mut points = Vec::with_capacity(config.ns.len() * protocols.len() * config.trials);
    for &n in &config.ns {
        for protocol in protocols {
            probe_specs(protocol, n, config.trials, config.seed, &mut points);
        }
    }
    let summaries = run_points(&points);
    let mean_msgs = |chunk: &[crate::runner::RunSummary]| {
        let total: u64 = chunk
            .iter()
            .map(|s| {
                assert_eq!(s.metrics.grants, 1, "single shot must be served");
                s.net.control_sent
            })
            .sum();
        total as f64 / chunk.len() as f64
    };
    config
        .ns
        .iter()
        .zip(summaries.chunks_exact(protocols.len() * config.trials))
        .map(|(&n, per_n)| {
            let (delegated, linear) = per_n.split_at(config.trials);
            Point {
                n,
                delegated: mean_msgs(delegated),
                linear: mean_msgs(linear),
                log2n: log2(n),
            }
        })
        .collect()
}

/// Runs the sweep and renders the table.
pub fn run(config: &Config) -> Table {
    let mut table = Table::new(vec!["n", "delegated", "linear", "log2(n)"])
        .title("Lemma 6 — search messages per request (single requester, idle system)");
    for p in series(config) {
        table.row(vec![
            p.n.to_string(),
            f2(p.delegated),
            f2(p.linear),
            f2(p.log2n),
        ]);
    }
    table.note("paper: delegated ≈ log2 N forwards; linear is Θ(N)");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delegated_search_is_logarithmic_linear_is_not() {
        let points = series(&Config::quick());
        for p in &points {
            assert!(
                p.delegated <= p.log2n + 2.0,
                "n={}: delegated {} vs log2 {}",
                p.n,
                p.delegated,
                p.log2n
            );
        }
        // Linear grows with n; delegated barely moves.
        let small = &points[0];
        let large = &points[1];
        assert!(large.linear > 2.0 * small.linear);
        assert!(large.delegated < small.delegated + 2.5);
    }

    #[test]
    fn table_renders() {
        let t = run(&Config::quick());
        assert_eq!(t.len(), 2);
    }
}
