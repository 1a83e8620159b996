//! Section 4.4 optimization ablation: each refinement toggled on top of the
//! baseline System BinarySearch under the Figure 9 workload.
//!
//! The paper sketches the refinements qualitatively; this table quantifies
//! them: mean responsiveness, cheap-message cost, and token traffic.

use atp_core::{ProtocolConfig, TrapCleanup};

use crate::report::{f2, Table};
use crate::runner::{ExperimentSpec, Protocol};
use crate::sweep::{run_points, PointSpec, WorkloadSpec};

/// Parameters of the ablation run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Ring size.
    pub n: usize,
    /// Mean inter-request gap.
    pub mean_gap: f64,
    /// Token rounds to simulate.
    pub rounds: u64,
    /// Determinism seed.
    pub seed: u64,
}

impl Config {
    /// Full scale: the Figure 9 workload at N = 64.
    pub fn paper() -> Self {
        Config {
            n: 64,
            mean_gap: 10.0,
            rounds: 1000,
            seed: 14,
        }
    }

    /// A seconds-scale preset for tests.
    pub fn quick() -> Self {
        Config {
            n: 16,
            mean_gap: 10.0,
            rounds: 60,
            seed: 14,
        }
    }
}

/// One ablation variant's outcome.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Variant name.
    pub name: String,
    /// Mean responsiveness.
    pub responsiveness: f64,
    /// Cheap (search) messages sent.
    pub control_sent: u64,
    /// Token messages sent.
    pub token_sent: u64,
    /// Grants completed.
    pub grants: u64,
}

/// The list of `(name, config)` variants the ablation sweeps.
pub fn variants() -> Vec<(&'static str, ProtocolConfig)> {
    let base = ProtocolConfig::default().with_record_log(false);
    vec![
        ("baseline", base),
        (
            "inverse-cleanup",
            base.with_trap_cleanup(TrapCleanup::Inverse),
        ),
        ("single-outstanding", base.with_single_outstanding(true)),
        ("serve-all-on-grant", base.with_serve_all_on_grant(true)),
        ("adaptive-speed", base.with_adaptive_speed(true)),
    ]
}

/// Computes all ablation variants — one sweep point per variant.
pub fn series(config: &Config) -> Vec<Variant> {
    let horizon = config.rounds * config.n as u64;
    let variants = variants();
    let points: Vec<PointSpec> = variants
        .iter()
        .map(|&(_, cfg)| {
            PointSpec::new(
                ExperimentSpec::new(Protocol::Binary, config.n, horizon)
                    .with_cfg(cfg)
                    .with_seed(config.seed),
                WorkloadSpec::global_poisson(config.mean_gap),
            )
        })
        .collect();
    variants
        .iter()
        .zip(run_points(&points))
        .map(|(&(name, _), s)| Variant {
            name: name.to_string(),
            responsiveness: s.metrics.responsiveness.mean,
            control_sent: s.net.control_sent,
            token_sent: s.net.token_sent,
            grants: s.metrics.grants,
        })
        .collect()
}

/// Runs the ablation and renders the table.
pub fn run(config: &Config) -> Table {
    let mut table = Table::new(vec![
        "variant",
        "resp",
        "control-msgs",
        "token-msgs",
        "grants",
    ])
    .title(format!(
        "Section 4.4 ablation — BinarySearch variants, n = {}, gap = {}",
        config.n, config.mean_gap
    ));
    for v in series(config) {
        table.row(vec![
            v.name.clone(),
            f2(v.responsiveness),
            v.control_sent.to_string(),
            v.token_sent.to_string(),
            v.grants.to_string(),
        ]);
    }
    table.note("single-outstanding trades a little latency for far fewer gimmes");
    table.note("adaptive-speed trades idle token traffic for wake-up latency");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_serve_the_same_load() {
        let points = series(&Config::quick());
        assert_eq!(points.len(), variants().len());
        let grants = points[0].grants;
        assert!(grants > 0);
        for v in &points {
            assert_eq!(v.grants, grants, "{} served a different load", v.name);
        }
    }

    #[test]
    fn single_outstanding_reduces_control_traffic() {
        let points = series(&Config::quick());
        let baseline = points.iter().find(|v| v.name == "baseline").unwrap();
        let throttled = points
            .iter()
            .find(|v| v.name == "single-outstanding")
            .unwrap();
        assert!(throttled.control_sent <= baseline.control_sent);
    }

    #[test]
    fn adaptive_speed_reduces_token_traffic() {
        let points = series(&Config::quick());
        let baseline = points.iter().find(|v| v.name == "baseline").unwrap();
        let adaptive = points.iter().find(|v| v.name == "adaptive-speed").unwrap();
        assert!(
            adaptive.token_sent < baseline.token_sent,
            "adaptive {} vs baseline {}",
            adaptive.token_sent,
            baseline.token_sent
        );
    }

    #[test]
    fn table_renders() {
        let t = run(&Config::quick());
        assert_eq!(t.len(), variants().len());
    }
}
