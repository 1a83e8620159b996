//! # atp-sim — workloads, metrics and the experiment harness
//!
//! The empirical side of the reproduction: everything needed to regenerate
//! the evaluation of *"Developing and Refining an Adaptive Token-Passing
//! Strategy"* (Section 4.3, Figures 9 and 10) plus the quantitative claims
//! of its lemmas and theorems.
//!
//! * [`workload`] — request-arrival processes: global/per-node Poisson,
//!   bursty on/off, saturated closed-loop, single-shot, and the Theorem 3
//!   fairness adversary.
//! * [`metrics`] — implements the paper's **responsiveness** metric
//!   (Definition 3) exactly, plus waiting times, per-node fairness, message
//!   complexity and failure counters.
//! * [`runner`] — drives a protocol inside an [`atp_net::World`], feeding
//!   arrivals in and streaming [`atp_core::TokenEvent`]s out to the metrics.
//! * [`sweep`] — the deterministic parallel executor: experiments express a
//!   sweep as a flat `Vec<PointSpec>` and fan it out over
//!   [`atp_util::pool`]; serial and parallel runs are byte-identical.
//! * [`span`] — request-lifecycle spans reconstructed from the event
//!   stream: per-phase tick durations and per-class message/byte counts,
//!   directly measuring Lemma 6's "forwarded O(log N) times".
//! * [`obs`] — the `--trace-out` / `--chrome-out` / `--metrics-out`
//!   plumbing the `atp` commands share: JSON-lines trace export,
//!   chrome://tracing span dumps, and exact-merge metrics registries.
//! * [`experiments`] — one module per paper artifact (`fig9`, `fig10`,
//!   message complexity, fairness, worst case, optimization ablation,
//!   failure recovery), each able to render the same rows/series the paper
//!   reports.
//!
//! ## Regenerating Figure 9
//!
//! ```rust,no_run
//! use atp_sim::experiments::fig9;
//! let table = fig9::run(&fig9::Config::quick());
//! println!("{}", table.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod cluster;
pub mod dst;
pub mod experiments;
pub mod metrics;
pub mod obs;
pub mod report;
pub mod runner;
pub mod shard;
pub mod span;
pub mod stats;
pub mod sweep;
pub mod workload;

pub use cluster::{
    run_in_world, run_on_endpoints, run_on_transport, ClusterScript, CrashEvent, CrashRecord,
    DriverOptions, GrantRec, RunOutcome, TransportStats,
};
pub use metrics::Metrics;
pub use obs::ObsArgs;
pub use runner::{
    run_experiment, run_experiment_profiled, run_experiment_traced, ExperimentSpec, NetProfile,
    Protocol, RunProfile, RunSummary,
};
pub use shard::{KeyDist, ShardPlaneSpec, ShardSummary};
pub use span::{RequestSpan, SpanCollector, SpanReport};
pub use sweep::{run_points, PointSpec, WorkloadSpec};
pub use workload::{
    Arrival, Bursty, GlobalPoisson, HogAndWaiter, PerNodePoisson, Saturated, SingleShot, Workload,
};
