//! Partition & duplication campaign: responsiveness degradation vs link
//! fault rate, with a scripted split/heal window in every run.
//!
//! Section 5's recovery machinery is exercised here end to end on a
//! hostile link layer: every point splits the ring into two halves
//! mid-run and heals it later, while the link-fault model loses *and*
//! duplicates a sweep-controlled fraction of all frames — token frames
//! included. Token acks/retransmits recover lost frames, handoff
//! watermarks discard duplicated ones, and generation fencing supersedes
//! the stale token after the heal. The sweep measures what that
//! robustness costs: responsiveness should degrade smoothly with the
//! fault rate, never collapse.

use atp_net::{FailurePlan, NodeId, SimTime};

use crate::report::{f2, Table};
use crate::runner::{ExperimentSpec, NetProfile, Protocol};
use crate::sweep::{run_points, PointSpec, WorkloadSpec};

/// Parameters of the partition/duplication sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Ring size.
    pub n: usize,
    /// Mean inter-request gap.
    pub mean_gap: f64,
    /// Link fault rates to sweep; each applies as both the loss and the
    /// duplication probability of every link.
    pub fault_ps: Vec<f64>,
    /// Token rounds to simulate.
    pub rounds: u64,
    /// Determinism seed.
    pub seed: u64,
}

impl Config {
    /// Full scale.
    pub fn paper() -> Self {
        Config {
            n: 32,
            mean_gap: 10.0,
            fault_ps: vec![0.0, 0.01, 0.02, 0.05, 0.1, 0.2],
            rounds: 400,
            seed: 23,
        }
    }

    /// A seconds-scale preset for tests.
    pub fn quick() -> Self {
        Config {
            n: 12,
            mean_gap: 10.0,
            fault_ps: vec![0.0, 0.05, 0.2],
            rounds: 60,
            seed: 23,
        }
    }
}

/// One point of the fault-rate sweep.
#[derive(Debug, Clone)]
pub struct Point {
    /// Per-link loss/duplication probability.
    pub fault_p: f64,
    /// Protocol measured.
    pub protocol: Protocol,
    /// Mean responsiveness under this fault rate.
    pub resp: f64,
    /// Requests that went unserved within the run's grace window.
    pub unserved: usize,
    /// Token frames re-sent by the ack/retransmit machinery.
    pub retransmits: u64,
    /// Duplicate token frames discarded by handoff watermarks.
    pub dup_discarded: u64,
    /// Frames of any class cut by the scripted partition.
    pub severed: u64,
}

/// The scripted split/heal window every sweep point runs under: the ring
/// splits into halves a quarter into the run and stays split for eight
/// rotations' worth of ticks.
fn partition_plan(n: usize, horizon: u64) -> FailurePlan {
    let split = n as u32 / 2;
    let at = horizon / 4;
    let heal_at = at + 8 * n as u64;
    let left: Vec<NodeId> = (0..split).map(NodeId::new).collect();
    let right: Vec<NodeId> = (split..n as u32).map(NodeId::new).collect();
    FailurePlan::new().partition_at(
        SimTime::from_ticks(at),
        SimTime::from_ticks(heal_at),
        vec![left, right],
    )
}

/// Protocols the sweep compares: the paper's contribution and the
/// path-reversal competitor, both on the same hostile link layer.
const PROTOCOLS: [Protocol; 2] = [Protocol::Binary, Protocol::Naimi];

/// Computes the sweep series — one point per (fault rate, protocol).
pub fn series(config: &Config) -> Vec<Point> {
    let horizon = config.rounds * config.n as u64;
    let mut labels = Vec::new();
    let mut points = Vec::new();
    for &p in &config.fault_ps {
        for protocol in PROTOCOLS {
            let cfg = atp_core::ProtocolConfig::default()
                .with_record_log(false)
                .with_token_acks(true);
            let cfg = cfg.with_regeneration(cfg.effective_regen_timeout(config.n));
            labels.push((p, protocol));
            points.push(PointSpec::new(
                ExperimentSpec::new(protocol, config.n, horizon)
                    .with_cfg(cfg)
                    .with_seed(config.seed)
                    .with_net(NetProfile::unit().link_faults(p, p).grace(horizon))
                    .with_failures(partition_plan(config.n, horizon)),
                WorkloadSpec::global_poisson(config.mean_gap),
            ));
        }
    }
    labels
        .into_iter()
        .zip(run_points(&points))
        .map(|((p, protocol), s)| Point {
            fault_p: p,
            protocol,
            resp: s.metrics.responsiveness.mean,
            unserved: s.metrics.unserved,
            retransmits: s.net.token_retransmits,
            dup_discarded: s.net.dup_tokens_discarded,
            severed: s.net.severed,
        })
        .collect()
}

/// Runs the sweep and renders the table.
pub fn run(config: &Config) -> Table {
    let mut table = Table::new(vec![
        "fault-p",
        "protocol",
        "resp",
        "unserved",
        "retransmits",
        "dup-discarded",
        "severed",
    ])
    .title(format!(
        "Partition & duplication — Binary vs Naimi, n = {}, gap = {}, split/heal scripted",
        config.n, config.mean_gap
    ));
    for p in series(config) {
        table.row(vec![
            f2(p.fault_p),
            p.protocol.label().to_string(),
            f2(p.resp),
            p.unserved.to_string(),
            p.retransmits.to_string(),
            p.dup_discarded.to_string(),
            p.severed.to_string(),
        ]);
    }
    table.note("acks/retransmits recover losses, watermarks discard copies, fencing heals splits");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_partition_heals_and_serves() {
        let points = series(&Config::quick());
        for protocol in PROTOCOLS {
            let clean = points.iter().find(|p| p.protocol == protocol).unwrap();
            assert_eq!(clean.fault_p, 0.0);
            assert!(
                clean.severed > 0,
                "{}: partition never cut a frame",
                protocol.label()
            );
            assert_eq!(
                clean.unserved,
                0,
                "{}: fault-free split/heal must serve every request",
                protocol.label()
            );
        }
    }

    #[test]
    fn faults_engage_recovery_machinery() {
        let points = series(&Config::quick());
        for protocol in PROTOCOLS {
            let faulty = points
                .iter()
                .rev()
                .find(|p| p.protocol == protocol)
                .unwrap();
            assert!(faulty.fault_p > 0.0);
            assert!(
                faulty.retransmits > 0,
                "{}: losses never triggered a retransmit",
                protocol.label()
            );
            assert!(
                faulty.dup_discarded > 0,
                "{}: duplicated frames never hit a watermark",
                protocol.label()
            );
        }
    }

    #[test]
    fn table_renders() {
        let t = run(&Config::quick());
        assert_eq!(t.len(), 6);
    }
}
