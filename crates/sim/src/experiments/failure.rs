//! Section 5 failure handling: crash the token holder, measure how long the
//! system takes to regenerate and serve a pending request.
//!
//! The paper: *"If a node x with the token fails, then nothing will happen
//! until some other node y needs the token, at which point it will quickly
//! discover that the token holder has failed … they can generate a new
//! token."*

use atp_core::ProtocolConfig;
use atp_net::{FailurePlan, NodeId, SimTime};

use crate::report::Table;
use crate::runner::{ExperimentSpec, Protocol};
use crate::sweep::{run_points, PointSpec, WorkloadSpec};

/// Parameters of the failure experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Ring size.
    pub n: usize,
    /// Suspicion timeout handed to the protocol.
    pub regen_timeout: u64,
    /// Determinism seed.
    pub seed: u64,
}

impl Config {
    /// Full scale.
    pub fn paper() -> Self {
        Config {
            n: 32,
            regen_timeout: 0, // effective default: 4n + 16
            seed: 15,
        }
    }

    /// A seconds-scale preset for tests.
    pub fn quick() -> Self {
        Config {
            n: 8,
            regen_timeout: 20,
            seed: 15,
        }
    }
}

/// Outcome of one failure scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name.
    pub name: String,
    /// Protocol measured.
    pub protocol: Protocol,
    /// Whether the pending request was eventually served.
    pub served: bool,
    /// Waiting time of the request (includes detection + regeneration).
    pub wait_ticks: u64,
    /// Token regenerations that occurred.
    pub regenerations: u64,
    /// Stale tokens discarded.
    pub stale_discards: u64,
}

fn scenario_spec(
    protocol: Protocol,
    config: &Config,
    failures: FailurePlan,
    request_at: u64,
) -> PointSpec {
    let mut cfg = ProtocolConfig::default().with_record_log(false);
    cfg = if config.regen_timeout > 0 {
        cfg.with_regeneration(config.regen_timeout)
    } else {
        cfg.with_regeneration(0)
    };
    let horizon = request_at + 200 * config.n as u64;
    let requester = NodeId::new(config.n as u32 / 2);
    PointSpec::new(
        ExperimentSpec::new(protocol, config.n, horizon)
            .with_cfg(cfg)
            .with_seed(config.seed)
            .with_failures(failures),
        WorkloadSpec::single_shot(SimTime::from_ticks(request_at), requester),
    )
}

/// Computes every failure scenario — one sweep point per (protocol,
/// scenario) pair.
pub fn series(config: &Config) -> Vec<Scenario> {
    let mut points = Vec::new();
    let mut names = Vec::new();
    // The token starts at node 0 in every protocol; crashing node 0 at t=1
    // kills the holder (ring/binary may have passed to node 1 by then, so we
    // also crash node 1 — the token dies either way).
    let crash_holder = FailurePlan::new()
        .crash_at(SimTime::from_ticks(1), NodeId::new(0))
        .crash_at(SimTime::from_ticks(1), NodeId::new(1));
    // Crashing a node that never held the token must not need regeneration
    // for ring/binary; the rotation simply routes around after regeneration
    // excludes it.
    let crash_bystander = FailurePlan::new().crash_at(SimTime::from_ticks(1), NodeId::new(2));
    // Crash then recover: the rejoin path readmits the node.
    let crash_recover = FailurePlan::new()
        .crash_at(SimTime::from_ticks(1), NodeId::new(0))
        .crash_at(SimTime::from_ticks(1), NodeId::new(1))
        .recover_at(SimTime::from_ticks(400), NodeId::new(0))
        .recover_at(SimTime::from_ticks(400), NodeId::new(1));

    for protocol in [
        Protocol::Ring,
        Protocol::Binary,
        Protocol::Search,
        Protocol::Naimi,
    ] {
        for (name, plan) in [
            ("crash-holder", &crash_holder),
            ("crash-bystander", &crash_bystander),
            ("crash-then-recover", &crash_recover),
        ] {
            names.push((name, protocol));
            points.push(scenario_spec(protocol, config, plan.clone(), 5));
        }
    }
    names
        .into_iter()
        .zip(run_points(&points))
        .map(|((name, protocol), s)| Scenario {
            name: name.to_string(),
            protocol,
            served: s.metrics.grants == 1,
            wait_ticks: s.metrics.waiting.max,
            regenerations: s.metrics.regenerations,
            stale_discards: s.metrics.stale_discards,
        })
        .collect()
}

/// Runs the experiment and renders the table.
pub fn run(config: &Config) -> Table {
    let mut table = Table::new(vec![
        "scenario",
        "protocol",
        "served",
        "wait",
        "regens",
        "stale-discards",
    ])
    .title(format!("Section 5 — token-loss recovery, n = {}", config.n));
    for s in series(config) {
        table.row(vec![
            s.name.clone(),
            s.protocol.label().to_string(),
            s.served.to_string(),
            s.wait_ticks.to_string(),
            s.regenerations.to_string(),
            s.stale_discards.to_string(),
        ]);
    }
    table.note("wait includes the suspicion timeout + inquiry + regeneration");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_is_eventually_served() {
        let points = series(&Config::quick());
        assert_eq!(points.len(), 12);
        for s in &points {
            assert!(
                s.served,
                "{} under {} was never served",
                s.name,
                s.protocol.label()
            );
        }
    }

    #[test]
    fn holder_crash_requires_regeneration_bystander_crash_may_not() {
        let points = series(&Config::quick());
        for s in &points {
            if s.name == "crash-holder" {
                assert!(
                    s.regenerations >= 1,
                    "{}: holder crash must regenerate",
                    s.protocol.label()
                );
            }
        }
        // For the lazy protocols a bystander crash never touches the token
        // at node 0.
        for lazy in [Protocol::Search, Protocol::Naimi] {
            let bystander = points
                .iter()
                .find(|s| s.name == "crash-bystander" && s.protocol == lazy)
                .unwrap();
            assert_eq!(
                bystander.regenerations,
                0,
                "{}: bystander crash should not regenerate",
                lazy.label()
            );
        }
    }

    #[test]
    fn table_renders() {
        let t = run(&Config::quick());
        assert_eq!(t.len(), 12);
    }
}
